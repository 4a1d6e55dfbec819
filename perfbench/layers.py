"""Per-layer tracing for the switchtaylor benchmark.

The package has no instruments of its own, so the traced run wraps, from
here, the public names that each layer's callers look up: module attributes
such as ``switchtaylor.convergence.sample_path``, methods such as
``NoisePath.step_aggregates``, the coefficient methods of the model in use,
and the kernels in ``switchtaylor.schemes.SCHEMES``.  Every wrapper records
one span per call; nested spans give self times.  ``installed`` puts the
wrappers in place for one traced operation and restores every original
afterwards, so untraced runs time the program as shipped.

A name that a later refactor removes is skipped with a warning; the metrics
derived from it are then absent from the output instead of crashing the run.
"""

from __future__ import annotations

import dataclasses
import statistics
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SCHEME_NAMES = ("euler", "milstein", "taylor15")
OP_NAMES = (
    "op_time_drift",
    "op_noise_drift",
    "op_time_diffusion",
    "op_noise_diffusion",
    "op_noise_noise_diffusion",
)
COEFF_METHODS = (
    "drift",
    "diffusion",
    "drift_gradient",
    "drift_hessian",
    "diffusion_gradient",
    "diffusion_hessian",
)
# spans reported as <label>.calls and <label>.s
SPAN_LABELS = (
    "markov_chain.sample_path",
    "markov_chain.states_at",
    "noise.build_noise",
    "noise.step_aggregates",
    "schemes.jump_records",
    "schemes.kernel.ref",
    "model.op",
    "model.check_commutativity",
)
KERNEL_PREFIX = "schemes.kernel."


class Tracer:
    """Spans and counts gathered by the wrappers of one traced operation.

    Spans are kept per label: call count, inclusive seconds and self seconds
    (inclusive minus the time of the spans opened inside it).  ``top_level``
    sums the spans opened outside any other span, so the operation's wall
    time minus ``top_level`` is the time the caller spent between layer
    calls.  The span stack assumes one thread, which is why the traced
    operation runs with ``threads=1``.
    """

    def __init__(self, reference_step=None):
        self.reference_step = reference_step
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.path_steps = Counter()
        self.top_level = 0.0
        self.grid_points = 0
        self.windows = defaultdict(lambda: np.zeros(4, dtype=np.int64))
        self.labels = set()
        self.broken = set()
        self._open = []

    def span(self, label, fn, observe=None):
        """Wrap ``fn`` so every call records a span under ``label``.

        ``label`` is a string or a function of the call's positional
        arguments.  ``observe(label, args, result)`` reads the result after
        the span closes; a result whose shape a refactor changed disables
        that observer with a warning.
        """

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.top_level += elapsed
            if observe is not None and observe not in self.broken:
                try:
                    observe(name, args, result)
                except (AttributeError, TypeError, IndexError, ValueError) as exc:
                    self.broken.add(observe)
                    warnings.warn("observer of %s disabled: %r" % (name, exc))
            return result

        traced.perfbench_label = label
        return traced

    # observers -----------------------------------------------------------

    def count_grid_points(self, name, args, noise):
        self.grid_points += int(noise.times.size)

    def count_windows(self, name, args, records):
        n_windows = int(np.asarray(args[2]).size) - 1
        self.windows[n_windows] += window_histogram(n_windows, records.counts)

    def count_path_steps(self, name, args, result):
        self.path_steps[name] += int(np.shape(args[1])[0])

    def kernel_label(self, scheme):
        """Reference-step calls of any scheme count as ``ref``."""

        def label(args):
            if self.reference_step is not None and args[3] == self.reference_step:
                return KERNEL_PREFIX + "ref"
            return KERNEL_PREFIX + scheme

        return label


def _targets(st, model, tracer):
    """(owner, name, label, observe) for every wrapped function."""
    chain, noise, schemes, conv = st.markov_chain, st.noise, st.schemes, st.convergence
    out = [
        (chain, "sample_path", "markov_chain.sample_path", None),
        (conv, "sample_path", "markov_chain.sample_path", None),
        (getattr(chain, "ChainPath", None), "states_at", "markov_chain.states_at", None),
        (noise, "build_noise", "noise.build_noise", tracer.count_grid_points),
        (conv, "build_noise", "noise.build_noise", tracer.count_grid_points),
        (getattr(noise, "NoisePath", None), "step_aggregates", "noise.step_aggregates", None),
        (schemes, "jump_records", "schemes.jump_records", tracer.count_windows),
        (conv, "jump_records", "schemes.jump_records", tracer.count_windows),
        (schemes, "check_commutativity", "model.check_commutativity", None),
        (conv, "check_commutativity", "model.check_commutativity", None),
    ]
    out += [(schemes, name, "model.op", None) for name in OP_NAMES]
    out += [(type(model.coefficients), name, "model.coeff", None) for name in COEFF_METHODS]
    return out


@contextmanager
def installed(tracer, st, model):
    """Wrap every layer entry point for the duration of the block."""
    undo = []
    try:
        for owner, name, label, observe in _targets(st, model, tracer):
            original = getattr(owner, name, None)
            if original is None:
                warnings.warn("%s.%s is gone; %s is not traced" % (owner, name, label))
                continue
            inherited = isinstance(owner, type) and name not in vars(owner)
            setattr(owner, name, tracer.span(label, original, observe))
            undo.append((owner, name, original, inherited))
            tracer.labels.add(label)
        registry = getattr(st.schemes, "SCHEMES", None)
        if registry is None:
            warnings.warn("switchtaylor.schemes.SCHEMES is gone; kernels are not traced")
        else:
            for scheme, info in list(registry.items()):
                kernel = tracer.span(
                    tracer.kernel_label(scheme), info.kernel, tracer.count_path_steps
                )
                registry[scheme] = dataclasses.replace(info, kernel=kernel)
                undo.append((registry, scheme, info, False))
            tracer.labels.add(KERNEL_PREFIX + "ref")
            tracer.labels.update(KERNEL_PREFIX + s for s in registry)
        yield tracer
    finally:
        for owner, name, original, inherited in reversed(undo):
            if isinstance(owner, dict):
                owner[name] = original
            elif inherited:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def layer_metrics(tracer, traced_wall):
    """Per-layer metrics of one traced operation."""
    out = {}
    for label in SPAN_LABELS:
        if label in tracer.labels:
            out[label + ".calls"] = tracer.calls[label]
            out[label + ".s"] = tracer.seconds[label]
    kernels = [KERNEL_PREFIX + name for name in ("ref",) + SCHEME_NAMES]
    kernel_calls = sum(tracer.calls[label] for label in kernels)
    steps_counted = tracer.count_path_steps not in tracer.broken
    for label in kernels[1:]:
        calls, seconds = tracer.calls[label], tracer.seconds[label]
        if label in tracer.labels and calls:
            out[label + ".calls"] = calls
            out[label + ".s"] = seconds
            out[label + ".us_per_call"] = 1e6 * seconds / calls
            if steps_counted:
                out[label + ".ns_per_path_step"] = 1e9 * seconds / tracer.path_steps[label]
    if kernels[0] in tracer.labels:
        out[KERNEL_PREFIX + "self_s"] = sum(tracer.self_seconds[label] for label in kernels)
    if "model.coeff" in tracer.labels:
        out["model.coeff.calls"] = tracer.calls["model.coeff"]
        out["model.coeff.s"] = tracer.seconds["model.coeff"]
        if kernel_calls:
            out["model.coeff.calls_per_kernel_call"] = tracer.calls["model.coeff"] / kernel_calls
    if tracer.count_grid_points not in tracer.broken and "noise.build_noise" in tracer.labels:
        out["noise.grid_points"] = tracer.grid_points
    out["convergence.self_s"] = traced_wall - tracer.top_level
    return out


def window_histogram(n_windows, counts):
    """(n0, n1, n2, n3plus): windows holding 0, 1, 2 and 3 or more switches,
    from the per-window switch counts of the windows that hold any."""
    counts = np.asarray(counts)
    return np.array(
        [
            n_windows - counts.size,
            np.count_nonzero(counts == 1),
            np.count_nonzero(counts == 2),
            np.count_nonzero(counts >= 3),
        ]
    )


def window_metrics(histograms, qmax, t_end):
    """Switch-window counts per level next to the chain bound (qmax h)^N.

    ``histograms`` maps a level's role (``coarsest``, ``reference``) to its
    step count L and its (n0, n1, n2, n3plus) counts over every window
    scanned.  ``bound_geN`` is the number of those windows that the bound
    P(at least N switches in a window of length h) <= (qmax h)^N allows.
    """
    out = {}
    for role, (steps, counts) in histograms.items():
        key = "schemes.switch_windows.%s." % role
        for name, value in zip(("n0", "n1", "n2", "n3plus"), counts):
            out[key + name] = int(value)
        windows = int(np.sum(counts))
        for n in (1, 2, 3):
            out[key + "bound_ge%d" % n] = windows * (qmax * t_end / steps) ** n
    return out


# ---------------------------------------------------------------------------
# kernel width sweep

SWEEP_FIXTURES = ("linear2", "diagonal3")
SWEEP_WIDTHS = (1, 512, 4096)
SWEEP_H = 1.0 / 256
_BLOCK_SECONDS = 0.02
_BLOCKS = 5


def _kernel_inputs(model, width, rng, switches):
    d, m, m0 = model.d, model.m, model.m0
    h = SWEEP_H
    y = model.x0 * (1.0 + 0.1 * rng.standard_normal((width, d)))
    regimes = rng.integers(1, m0 + 1, size=width)
    g = rng.standard_normal((width, m, 2))
    dw = np.sqrt(h) * g[:, :, 0]
    dz = h**1.5 * (0.5 * g[:, :, 0] + (0.5 / np.sqrt(3.0)) * g[:, :, 1])
    jumps = None
    if switches:
        dt1 = h * rng.random(width)
        zeros = np.zeros((width, m))
        jumps = switches(
            rows=np.arange(width, dtype=np.intp),
            counts=np.ones(width, dtype=np.int64),
            dt1=dt1,
            reg1=(regimes % m0 + 1).astype(np.int64),
            w1=np.sqrt(dt1)[:, None] * rng.standard_normal((width, m)),
            dt2=np.zeros(width),
            reg2=(regimes % m0 + 1).astype(np.int64),
            w2=zeros,
            w3=zeros,
        )
    return (model.coefficients, y, regimes, h, dw, dz, jumps)


def _seconds_per_call(kernel, args):
    """Median per-call time over a few blocks of back-to-back calls."""
    start = perf_counter()
    kernel(*args)
    once = perf_counter() - start
    per_block = max(1, int(_BLOCK_SECONDS / max(once, 1e-9)))
    samples = []
    for _ in range(_BLOCKS):
        start = perf_counter()
        for _ in range(per_block):
            kernel(*args)
        samples.append((perf_counter() - start) / per_block)
    return statistics.median(samples)


def kernel_sweep(st, seed):
    """``schemes.sweep.<fixture>.<scheme>.b<width>[_switch].us_per_call``.

    Calls each registered kernel directly on generated inputs: jump free at
    every width, and at width 512 once more with a switch on every row.
    """
    out = {}
    rng = np.random.default_rng(seed)
    switches = getattr(st.schemes, "JumpData", None)
    if switches is None:
        warnings.warn("switchtaylor.schemes.JumpData is gone; no switch sweep")
    cells = [(width, None) for width in SWEEP_WIDTHS]
    if switches is not None:
        cells.append((512, switches))
    for fixture in SWEEP_FIXTURES:
        model = st.fixture(fixture)
        for scheme in SCHEME_NAMES:
            kernel = st.schemes.SCHEMES[scheme].kernel
            for width, jump_type in cells:
                name = "schemes.sweep.%s.%s.b%d%s.us_per_call" % (
                    fixture, scheme, width, "_switch" if jump_type else ""
                )
                try:
                    args = _kernel_inputs(model, width, rng, jump_type)
                    out[name] = 1e6 * _seconds_per_call(kernel, args)
                except (AttributeError, TypeError, KeyError) as exc:
                    warnings.warn("%s not measured: %r" % (name, exc))
    return out
