"""In-memory spans around calls into the labanmotion modules.

The traced run wraps the public functions listed in ``SPANS`` wherever the
package holds a reference to them, module attributes and names re-imported
into other modules alike (``robot.validate`` is ``laban.validate``), so a
nested call such as decode -> validate gets its own span. While a job is
open every wrapped call appends a span ``[name, start, end, parent, job]``;
nothing is written until :meth:`Tracer.write`.

A span's self time is its duration minus the time its child spans cover.
Per job, the self times of all spans plus the job span's own self time
(``cli.other``: argument parsing, file I/O and JSON writes in the CLI) add
up to the job's duration.
"""

from __future__ import annotations

import collections
import inspect
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "labanmotion"
JOB = "cli.other"  # the job's own span; its self time is what no layer covers

# (module, function, layer metric its self time is charged to)
SPANS = (
    ("skeleton", "load_sequence", "skeleton.load"),
    ("skeleton", "resample", "skeleton.resample"),
    ("keyframe", "energy", "keyframe.energy"),
    ("keyframe", "detect_peaks", "keyframe.peaks"),
    ("keyframe", "merge_keyframes", "keyframe.merge"),
    ("encoder", "encode_sequence", "encoder.encode"),
    ("encoder", "encode_pose", "encoder.encode_pose"),
    ("laban", "load_score", "laban.load"),
    ("laban", "save_score", "laban.save"),
    ("laban", "validate", "laban.validate"),
    ("laban", "states_at", "laban.states_at"),
    ("robot", "load_robot", "robot.load"),
    ("robot", "decode_score_detailed", "robot.decode"),
    ("robot", "project_path", "robot.project_path"),
    ("trajectory", "synthesize", "trajectory.synthesize"),
    ("trajectory", "trajectory_to_csv", "trajectory.csv"),
    ("trajectory", "dict_update", "trajectory.dict_update"),
    ("trajectory", "load_dictionary", "trajectory.dict_io"),
    ("trajectory", "save_dictionary", "trajectory.dict_io"),
)
LAYERS = tuple(dict.fromkeys(metric for _, _, metric in SPANS))


# Counters read a call's bound arguments and result after the job ends, so
# their cost is charged to no span. Each returns the counts to add.
def _decode_counts(args, poses) -> dict:
    driven = [cmd for pose in poses for cmd in pose.segments.values() if cmd.driven]
    return {"robot.poses": len(poses), "robot.driven": len(driven),
            "robot.clamped": sum(cmd.clamped for cmd in driven)}


COUNTERS = {
    "skeleton.load_sequence": lambda a, r: {"skeleton.frames": len(r)},
    "keyframe.detect_peaks": lambda a, r: {"keyframe.peaks": len(r)},
    "keyframe.merge_keyframes": lambda a, r: {"keyframe.merged": len(r.merged)},
    "encoder.encode_sequence": lambda a, r: {
        "encoder.cells": sum(len(col.cells) for col in r.columns),
        "encoder.slots": len(a["kfs"].merged) * len(r.columns),
    },
    "laban.validate": lambda a, r: {"laban.validate_calls": 1},
    "laban.states_at": lambda a, r: {"laban.states_at_calls": 1},
    "robot.decode_score_detailed": _decode_counts,
    "robot.project_path": lambda a, r: {"robot.projected_frames": len(r)},
    "trajectory.synthesize": lambda a, r: {"trajectory.samples": len(r.samples)},
    "trajectory.dict_update": lambda a, r: {"trajectory.dict_updates": 1},
    # the CLI builds from an empty dictionary, so every saved path is new
    "trajectory.save_dictionary": lambda a, r: {
        "trajectory.dict_paths": sum(len(e.paths) for e in a["mdict"].entries.values()),
    },
    # counted but not timed: lookups run inside synthesize's span
    "trajectory.dict_lookup": lambda a, r: {"trajectory.dict_lookups": 1,
                                            "trajectory.dict_hits": int(r is not None)},
}


class Tracer:
    """Wraps the package's functions and records spans and counts per job."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[object, collections.Counter] = collections.defaultdict(collections.Counter)
        self._open: list[int] = []
        self._job = None
        self._pending: list[tuple] = []
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name, metric in SPANS + (("trajectory", "dict_lookup", None),):
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            counter = COUNTERS.get(f"{mod_name}.{fn_name}")
            wrapper = self._wrap(original, metric, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, metric, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            if metric is not None:
                idx = len(self.spans)
                self.spans.append([metric, time.perf_counter(), 0.0, self._open[-1], self._job])
                self._open.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[idx][2] = time.perf_counter()
                    self._open.pop()
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                self._pending.append((counter, signature, args, kwargs, result, self._job))
            return result

        return traced

    # -- jobs ----------------------------------------------------------------
    @contextmanager
    def job(self, job_id):
        """Record every wrapped call made inside the block as part of one job."""
        idx = len(self.spans)
        self.spans.append([JOB, time.perf_counter(), 0.0, None, job_id])
        self._open.append(idx)
        self._job = job_id
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()
            self._job = None
            for counter, signature, args, kwargs, result, job in self._pending:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[job].update(counter(bound.arguments, result))
            self._pending.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict[object, collections.Counter]:
        """Per job: layer metric -> summed self time in seconds, plus
        ``"job"`` -> the job span's duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[object, collections.Counter] = collections.defaultdict(collections.Counter)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            out[job][name] += (end - start) - child[i]
            if parent is None:
                out[job]["job"] += end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
