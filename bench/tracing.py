"""Spans and counters around frameflow's layers, for the traced run only.

Each layer function is replaced, under the module attribute through which
its caller looks it up, by a wrapper that records a span (name, parent,
start, end) in memory.  Chart callables are wrapped by wrapping the
``chart_by_name`` the engine and the ensemble harness call.  Nothing under
``src/`` changes, and ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct
children.  Counting hooks run outside the counted span, so their small
cost lands in the parent's self time.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: defaultdict = defaultdict(int)
        self.written: list[str] = []
        self._batch_paths = 0
        self._block_normals = 0
        self._patches: list = []

    # ----------------------------------------------------------- recording

    def wrap(self, name: str, fn, before=None):
        """``fn`` inside a span called ``name``; ``before(args)`` counts first."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # ------------------------------------------------------------- layers

    def install(self, ff) -> None:
        pg, gp, hom, cli = ff.perturbed_geodesic, ff.group_process, ff.homogenize, ff.cli
        count = self.counts

        def count_matrices(args):
            a = args[0]
            count["lie_algebra.group_exp.matrices"] += a.size // (a.shape[-1] * a.shape[-1])

        self.patch(gp, "group_exp", self.wrap("lie_algebra.group_exp", gp.group_exp,
                                              count_matrices))
        self.patch(pg, "_advance", self.wrap("group_process.advance", pg._advance))
        self.patch(pg, "project_rotation",
                   self.wrap("lie_algebra.project_rotation", pg.project_rotation))
        self.patch(pg, "gram_schmidt_metric",
                   self.wrap("manifold.gram_schmidt_metric", pg.gram_schmidt_metric))
        self.patch(pg, "philox_stream", self._noise_streams(pg.philox_stream))
        for module in (pg, hom):
            self.patch(module, "chart_by_name", self._charts(module.chart_by_name))
            self.patch(module, "simulate_paths", self.wrap(
                "perturbed_geodesic.simulate_paths", module.simulate_paths, self._new_batch))
        self.patch(hom, "run_ensemble", self.wrap("homogenize.reduce", hom.run_ensemble))
        self.patch(hom, "oracle_euclidean_bm",
                   self.wrap("homogenize.oracle", hom.oracle_euclidean_bm))
        self.patch(hom, "oracle_hyperbolic_bm",
                   self.wrap("homogenize.oracle", hom.oracle_hyperbolic_bm))
        self.patch(hom, "_advance_half_plane", self._proposals(hom._advance_half_plane))
        self.patch(hom, "ks_two_sample", self.wrap("homogenize.ks", hom.ks_two_sample))
        self.patch(cli, "simulate_rescaled_path", self.wrap(
            "perturbed_geodesic.simulate_rescaled_path", cli.simulate_rescaled_path))
        self.patch(cli, "_write_csv", self.wrap(
            "cli.write", cli._write_csv, lambda args: self.written.append(str(args[0]))))
        self.patch(cli, "main", self.wrap("cli", cli.main))

    def _new_batch(self, args) -> None:
        """Entry hook of simulate_paths: note the batch width for the block size."""
        self._batch_paths = len(args[1])
        self._block_normals = 0

    def _charts(self, chart_by_name):
        wrap = self.wrap

        def traced_chart_by_name(name):
            chart = wrap("manifold.chart_by_name", chart_by_name)(name)
            fields = {}
            for attr in ("in_domain", "transport_rate", "distance"):
                fn = getattr(chart, attr)
                if fn is not None:
                    fields[attr] = wrap(f"manifold.{attr}", fn)
            return dataclasses.replace(chart, **fields)

        return traced_chart_by_name

    def _noise_streams(self, philox_stream):
        tracer = self

        class CountingGenerator:
            """Times each block draw; path steps are the block lengths."""

            def __init__(self, gen):
                self.standard_normal = tracer.wrap("perturbed_geodesic.noise",
                                                   gen.standard_normal, self._count)

            @staticmethod
            def _count(args):
                shape = args[0]
                size = int(np.prod(shape))
                tracer.counts["perturbed_geodesic.noise.normals"] += size
                tracer.counts["perturbed_geodesic.path_steps"] += shape[0]
                if size > tracer._block_normals:
                    tracer._block_normals = size
                    block = 8 * size * tracer._batch_paths
                    if block > tracer.counts["perturbed_geodesic.noise.bytes"]:
                        tracer.counts["perturbed_geodesic.noise.bytes"] = block

        return lambda seed, stream: CountingGenerator(philox_stream(seed, stream))

    def _proposals(self, advance_half_plane):
        """Count Euler proposals tried and kept from the state seen at each draw.

        A row's position changes exactly when its proposal is kept; a row is
        tried at every iteration up to its last kept proposal, or up to the
        iteration in which it is dropped as dead.
        """
        count = self.counts

        def traced(x, alive, span, base_dt, rng, *rest, **kwargs):
            m = x.shape[0]
            was_alive = alive.copy()
            prev_x, prev_alive = x.copy(), alive.copy()
            last_tried = np.full(m, -1)
            it = [0]

            def observe():
                i = it[0] - 1                     # iteration that just finished
                kept = np.any(x != prev_x, axis=1)
                died = prev_alive & ~alive
                count["homogenize.oracle.kept"] += int(kept.sum())
                last_tried[kept | died] = i
                prev_x[...] = x
                prev_alive[...] = alive

            class CountingRng:
                def standard_normal(self, size):
                    if it[0] > 0:
                        observe()
                    it[0] += 1
                    return rng.standard_normal(size)

            out = advance_half_plane(x, alive, span, base_dt, CountingRng(), *rest, **kwargs)
            if it[0] > 0:
                observe()
            count["homogenize.oracle.proposals"] += int((last_tried[was_alive] + 1).sum())
            return out

        return traced

    # ------------------------------------------------------------- summary

    def mark(self) -> int:
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over spans lo..hi-1."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        own = dur.copy()
        inside = parents >= lo
        np.subtract.at(own, parents[inside] - lo, dur[inside])
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, stem: Path, layers: dict) -> None:
        """Spans to ``<stem>.npz``; per-layer calls and self time to ``<stem>.json``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.savez(stem.with_suffix(".npz"), names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
        stem.with_suffix(".json").write_text(json.dumps(layers, indent=1, sort_keys=True) + "\n")
