"""Layer spans recorded from outside the library.

The tracer wraps public functions at layer boundaries and changes nothing
in the package's source. Each function is found by name and replaced in
every ``noma_uplink`` module that holds that same object, so callers that
imported it with ``from .rng import trial_stream`` see the wrapper too and
a renamed private helper cannot break the trace. A public name that no
longer exists is reported in ``missing`` instead of failing the run.

A span is ``[name, thread_id, start, end, n1, n2]`` with perf_counter
times. ``n1``/``n2`` carry counts measured at the boundary: doubles and
trial rows for ``rng.draw``, codewords used for ``montecarlo.point``.
"""

import functools
import sys
import threading
import time

# (home module, public function, span name)
BOUNDARIES = (
    ("rng", "trial_stream", "rng.stream"),
    ("rng", "normals_from_uniforms", "rng.normals"),
    ("montecarlo", "run_ber_point", "montecarlo.point"),
    ("bounds", "union_bound_value", "bounds.eval"),
)

_clock = time.perf_counter
_thread = threading.get_ident


class _TimedGenerator:
    """A numpy Generator whose ``random`` calls are recorded as rng.draw spans."""

    __slots__ = ("_gen", "_spans")

    def __init__(self, gen, spans):
        self._gen = gen
        self._spans = spans

    def random(self, *args, **kwargs):
        t0 = _clock()
        out = self._gen.random(*args, **kwargs)
        t1 = _clock()
        rows = out.shape[0] if getattr(out, "ndim", 0) == 2 else 0
        self._spans.append(["rng.draw", _thread(), t0, t1, int(getattr(out, "size", 1)), rows])
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "noma_uplink" or n.startswith("noma_uplink."))]


def _find(modules, home, name):
    """The object named ``name``, preferring its home module over other holders."""
    homed = getattr(sys.modules.get(f"noma_uplink.{home}"), name, None)
    if callable(homed):
        return homed
    return next((getattr(m, name) for m in modules if callable(getattr(m, name, None))), None)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []  # list.append is atomic, so worker threads may record
        self.missing = []
        self._undo = []

    def install(self):
        modules = _package_modules()
        for home, name, span in BOUNDARIES:
            orig = _find(modules, home, name)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(orig, span)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def _wrap(self, fn, span):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            out = fn(*args, **kwargs)
            t1 = _clock()
            n1 = 0
            if span == "rng.stream":
                out = _TimedGenerator(out, spans)
            elif span == "montecarlo.point":
                n1 = int(getattr(out, "codewords_used", 0))
            spans.append([span, _thread(), t0, t1, n1, 0])
            return out

        return wrapper
