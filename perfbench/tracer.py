"""In-memory spans around the names each sphereflow module looks up.

The tracer replaces module attributes (and two SpectralGrid methods) with
wrappers that record a span per call: name, start, end and parent span id.
Nothing in the package is edited; ``restore`` puts the originals back.

Layer map (span name <- the name its caller looks up):

    cli                <- sphereflow.cli.main, wrapped by the worker
    cli.io             <- cli.energy.write_timeseries_csv, cli.write_snapshot
    integrators        <- cli.integrate
    model.F            <- integrators._F_values, model._F_values
    energy.report      <- integrators.energy.make_report
    spectral.transform <- SpectralGrid.to_coeffs, SpectralGrid.to_values
    mild.picard        <- cli.mild.picard_solve
    mild.phi_map       <- mild.phi_map (looked up by picard_solve)
    mild.convolve      <- mild.convolve_semigroup (looked up by phi_map)
"""

from __future__ import annotations

import gzip
import sys
import time

# (module name, attribute, span name)
HOOKS = (
    ("sphereflow.cli", "integrate", "integrators"),
    ("sphereflow.cli", "write_snapshot", "cli.io"),
    ("sphereflow.energy", "write_timeseries_csv", "cli.io"),
    ("sphereflow.energy", "make_report", "energy.report"),
    ("sphereflow.integrators", "_F_values", "model.F"),
    ("sphereflow.model", "_F_values", "model.F"),
    ("sphereflow.mild", "picard_solve", "mild.picard"),
    ("sphereflow.mild", "phi_map", "mild.phi_map"),
    ("sphereflow.mild", "convolve_semigroup", "mild.convolve"),
)
TRANSFORM_METHODS = ("to_coeffs", "to_values")
TRANSFORM = "spectral.transform"
ROOT = "cli"

# span record fields
NAME, START, END, PARENT, SHAPE = range(5)


class Tracer:
    """Collects spans in memory; write them out once with ``write``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.missing = []  # hooks the last install could not find

    def wrap(self, name, fn, shape_arg=None):
        """Return ``fn`` wrapped in a span; ``shape_arg`` is the index of a
        positional array argument whose shape is stored with the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            shape = args[shape_arg].shape if shape_arg is not None else None
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, shape])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][END] = clock()

        return traced

    def _patch(self, owner, attr, name, shape_arg=None):
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, orig, shape_arg))
        self._patches.append((owner, attr, orig))

    def install(self):
        """Wrap every hook; hooks the package no longer has are listed in
        ``missing`` and their time counts toward the caller's span."""
        from sphereflow.spectral import SpectralGrid

        self.missing = []
        for module, attr, name in HOOKS:
            self._patch(sys.modules[module], attr, name)
        for attr in TRANSFORM_METHODS:
            # positional args of the bound call are (self, array)
            self._patch(SpectralGrid, attr, TRANSFORM, shape_arg=1)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path, first, stop):
        """Write spans[first:stop] as gzipped CSV (id,name,start,end,parent)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid in range(first, stop):
                s = self.spans[sid]
                fh.write(f"{sid},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]}\n")


def call_profile(spans, root: int, stop: int) -> dict:
    """Self time and call count per span name for the call rooted at
    ``spans[root]``, whose spans are ``spans[root:stop]``.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of one call sum to the root's duration.
    Also returns the shapes every transform ran on.
    """
    child = {}
    for sid in range(root + 1, stop):
        s = spans[sid]
        child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
    self_s, calls, shapes = {}, {}, []
    for sid in range(root, stop):
        s = spans[sid]
        dur = s[END] - s[START]
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + dur - child.get(sid, 0.0)
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        if s[SHAPE] is not None:
            shapes.append(s[SHAPE])
    return {"self_s": self_s, "calls": calls, "shapes": shapes,
            "root_s": spans[root][END] - spans[root][START]}
