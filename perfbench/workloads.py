"""The benchmark's workloads and the checks on their outputs.

Each workload turns a seed into the inputs of one operation (``prepare``),
runs that operation through the package's public entry points (``run``),
and judges the output (``problems``, ``digest``).  ``prepare`` is what the
benchmark times as set-up; the operation is what it times as ``wall_s``.

- ``desk-linear2``: the desk strong-order study on the scalar fixture.
  Every kernel call is flat Python overhead, so chain sampling, noise
  construction and the engine's bookkeeping decide the wall time, and the
  engine's thread pool is slower than one thread.
- ``desk-diagonal3``: the same study on the two-dimensional fixture, where
  the coefficient operators make the kernels most of the time and the
  thread pool is faster than one thread.
- ``trajectory-diagonal3``: independent single paths integrated on the
  reference grid by every scheme, the path the ``simulate`` command takes.
  Kernels run at batch width 1, where per-call overhead dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from layers import SCHEME_NAMES, window_histogram

NOMINAL_ORDERS = {"euler": 0.5, "milstein": 1.0, "taylor15": 1.5}


def _nonfinite(values):
    return not np.isfinite(np.asarray(values, dtype=float)).all()


@dataclass(frozen=True)
class DeskStudy:
    """A coupled strong-order study through ``convergence.run``.

    ``order_tolerance`` is the largest accepted distance of a fitted order
    from 0.5 / 1.0 / 1.5.  None skips the order checks, whose outcome is
    noise at toy path counts.
    """

    fixture: str
    paths: int
    threads: int
    order_tolerance: float | None
    coarse_steps: tuple = (8, 16, 32, 64)
    reference_steps: int = 1024
    t_end: float = 1.0

    def prepare(self, st, seed):
        return st.convergence.ExperimentPlan(
            model=st.fixture(self.fixture),
            schemes=SCHEME_NAMES,
            t_end=self.t_end,
            coarse_steps=self.coarse_steps,
            reference_steps=self.reference_steps,
            paths=self.paths,
            seed=seed,
        )

    def run(self, st, plan, threads):
        return st.convergence.run(plan, threads=threads)

    @staticmethod
    def _values(reports):
        values = []
        for name in SCHEME_NAMES:
            report = reports[name]
            for row in report.rows:
                values += [row.steps, row.h, row.mean_error, row.stderr, row.second_moment_peak]
            values += [report.gamma_hat, report.r2]
        return np.asarray(values, dtype=float)

    def digest(self, reports):
        return self._values(reports).tobytes()

    def problems(self, reports):
        if _nonfinite(self._values(reports)):
            return ["report holds a non-finite value"]
        if self.order_tolerance is None:
            return []
        out = []
        gammas = [reports[name].gamma_hat for name in SCHEME_NAMES]
        if not gammas[0] < gammas[1] < gammas[2]:
            out.append("fitted orders not increasing: %s" % (gammas,))
        for name, gamma in zip(SCHEME_NAMES, gammas):
            if abs(gamma - NOMINAL_ORDERS[name]) > self.order_tolerance:
                out.append(
                    "%s order %.4f is more than %.2f from %.1f"
                    % (name, gamma, self.order_tolerance, NOMINAL_ORDERS[name])
                )
        return out

    def reference_step(self, plan):
        return plan.t_end / plan.reference_steps

    def window_histograms(self, st, plan, tracer, result):
        """Switches per window at the coarsest and the reference level, as
        the engine's own ``jump_records`` calls returned them."""
        if tracer.count_windows in tracer.broken:
            return {}
        levels = {"coarsest": plan.coarse_steps[0], "reference": plan.reference_steps}
        return {
            role: (steps, tracer.windows[steps])
            for role, steps in levels.items()
            if steps in tracer.windows
        }


@dataclass(frozen=True)
class PathRun:
    """One sampled path and its trajectory under every scheme."""

    chain: object
    noise: object
    trajectories: tuple


@dataclass(frozen=True)
class TrajectoryJob:
    model: object
    grid: object
    seed: int


@dataclass(frozen=True)
class TrajectoryBatch:
    """``paths`` independent single paths, each sampled and integrated by
    every scheme on a ``steps``-step grid, as ``switchtaylor simulate`` does.

    The batch has no worker pool, so ``threads`` is ignored.
    ``max_scheme_gap`` bounds the sup distance between a scheme's path and
    the taylor15 path driven by the same noise.
    """

    fixture: str
    paths: int
    steps: int = 4096
    t_end: float = 1.0
    threads: int = 1
    max_scheme_gap: float = 0.2
    coarse_steps: int = 8

    def prepare(self, st, seed):
        for name in SCHEME_NAMES:
            st.schemes.get_scheme(name)
        return TrajectoryJob(
            model=st.fixture(self.fixture),
            grid=st.noise.GridSpec(0.0, self.t_end, self.steps),
            seed=seed,
        )

    def run(self, st, job, threads):
        model, grid = job.model, job.grid
        out = []
        for k in range(self.paths):
            chain_seed, noise_seed = np.random.SeedSequence((job.seed, k)).spawn(2)
            chain = st.markov_chain.sample_path(
                model.generator,
                model.initial_regime,
                0.0,
                self.t_end,
                np.random.default_rng(chain_seed),
            )
            noise = st.noise.build_noise(grid, chain, model.m, np.random.default_rng(noise_seed))
            times = grid.finest_times()
            trajectories = tuple(
                st.schemes.integrate(model, name, chain, noise, times) for name in SCHEME_NAMES
            )
            out.append(PathRun(chain, noise, trajectories))
        return out

    def digest(self, paths):
        parts = []
        for path in paths:
            for traj in path.trajectories:
                parts += [traj.states.tobytes(), traj.regimes.tobytes()]
        return b"".join(parts)

    def problems(self, paths):
        out = []
        for k, path in enumerate(paths):
            states = [traj.states for traj in path.trajectories]
            if any(_nonfinite(s) for s in states):
                return ["path %d holds a non-finite state" % k]
            x0 = path.trajectories[0].states[0]
            gap = max(float(np.abs(s - states[-1]).max()) for s in states)
            if gap > self.max_scheme_gap or any(not np.array_equal(s[0], x0) for s in states):
                out.append("path %d: schemes disagree by %.3g" % (k, gap))
        return out

    def reference_step(self, job):
        return None

    def window_histograms(self, st, job, tracer, result):
        """Switches per window on a coarse grid and on the integration grid
        of every path in the batch, read from ``jump_records``."""
        out = {}
        fine = job.grid.finest_times()
        for role, steps in (("coarsest", self.coarse_steps), ("reference", self.steps)):
            edges = fine[:: self.steps // steps]
            out[role] = steps, sum(
                window_histogram(steps, st.schemes.jump_records(p.chain, p.noise, edges).counts)
                for p in result
            )
        return out


WORKLOADS = {
    "desk-linear2": DeskStudy("linear2", paths=1024, threads=2, order_tolerance=0.6),
    "desk-diagonal3": DeskStudy("diagonal3", paths=1024, threads=2, order_tolerance=0.4),
    "trajectory-diagonal3": TrajectoryBatch("diagonal3", paths=4),
}
