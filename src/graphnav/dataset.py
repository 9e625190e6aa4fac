"""Demonstration buffers on disk: JSON-Lines records and the manifest.

One file per command buffer (forward.jsonl, turn_left.jsonl,
turn_right.jsonl) plus manifest.json. A record holds a step's features `S`
and its label, not its adjacency, which training builds from `S`. All of a
buffer's records have one node count; reading refuses one that differs.
Records round-trip exactly: floats are written with shortest-repr JSON
encoding, which parses back bit-identical.
Every buffer is written by a forked writer (`atomic.WriteBehind`) where two
CPUs are usable. Collection may hand a finished buffer to one whole
(`write_behind`) and reap it itself, recording its file in
`DemoDataset.written`; `write_dataset` writes every other buffer as
checkpoints are written (`atomic.atomic_write_halves`), a forked writer
writing the back half of the records. Either way the bytes are those one
process writes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import WriteBehind, atomic_write, atomic_write_halves
from .graph import GraphConfig
from .jsontypes import COMPACT, has_type_of, require_types
from .layout import COMMANDS, Command
from .rollout import DemoSample

SCHEMA_VERSION = 3
_RECOLLECT = f"not a schema-{SCHEMA_VERSION} dataset; re-collect it with `graphnav collect`"
BUFFER_FILES = {
    Command.FORWARD: "forward.jsonl",
    Command.TURN_LEFT: "turn_left.jsonl",
    Command.TURN_RIGHT: "turn_right.jsonl",
}


class DatasetFormatError(ValueError):
    def __init__(self, path, line_no: int | None, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}" if line_no else f"{path}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason


@dataclass
class DemoDataset:
    buffers: dict = field(default_factory=lambda: {c: [] for c in COMMANDS})
    manifest: dict = field(default_factory=dict)
    # buffer path -> wall seconds of the writer that wrote it during collection
    written: dict = field(default_factory=dict)

    def counts(self) -> dict:
        return {c.value: len(self.buffers[c]) for c in COMMANDS}

    def total(self) -> int:
        return sum(len(b) for b in self.buffers.values())


def _sample_to_record(sample: DemoSample) -> dict:
    return {
        "episode_id": sample.episode_id,
        "step": sample.step,
        "command": sample.command.value,
        "S": sample.features.tolist(),
        "u_star": sample.u_star.tolist(),
    }


_RECORD_TYPES = {"episode_id": 0, "step": 0, "command": "forward", "u_star": [0.0, 0.0]}  # S: an array
_RECORD_KEYS = {*_RECORD_TYPES, "S"}


def _record_to_sample(record: dict) -> DemoSample:
    feats = np.asarray(record["S"], dtype=float)
    u_star = np.asarray(record["u_star"], dtype=float)
    if feats.ndim != 2 or feats.shape[1] != 12:
        raise ValueError(f"S must be (N, 12), got {feats.shape}")
    if u_star.shape != (2,):
        raise ValueError("u_star must have 2 entries")
    for name, arr in (("S", feats), ("u_star", u_star)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a non-finite value")
    require_types(record, _RECORD_TYPES)
    return DemoSample(feats, Command(record["command"]), u_star, record["episode_id"], record["step"])


def _emit_records(fh, samples: list) -> None:
    for sample in samples:
        fh.write(COMPACT.encode(_sample_to_record(sample)) + "\n")


def write_behind(path, samples: list) -> WriteBehind:
    """A forked writer of `samples`' records to `path`, to finish or cancel."""
    return WriteBehind(path, _emit_records, samples)


def write_dataset(dataset: DemoDataset, out_dir) -> dict:
    """Write the buffers, then the manifest. Returns, per command, whether
    its buffer was written `behind`, by how many `processes` and in how many
    wall seconds (`write_s`). A buffer that `dataset.written` holds under
    its path in `out_dir` is already in place and reported with its
    writer's seconds; any other is written here, cut at half its records: a
    buffer's records all have one node count, as density is fixed per
    command. On any failure, an interrupt included, no writer outlives the
    call and no temporary file is left."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writes = {}
    for command, filename in BUFFER_FILES.items():
        path = out_dir / filename
        if path in dataset.written:
            writes[command.value] = {"behind": True, "processes": 1,
                                     "write_s": dataset.written[path]}
            continue
        started = time.perf_counter()
        samples = dataset.buffers[command]
        half = (len(samples) + 1) // 2
        processes = atomic_write_halves(path, _emit_records, samples[:half], samples[half:])
        writes[command.value] = {"behind": False, "processes": processes,
                                 "write_s": time.perf_counter() - started}
    manifest = {**dataset.manifest, "schema_version": SCHEMA_VERSION}
    manifest["counts"] = dataset.counts()
    with atomic_write(out_dir / "manifest.json") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return writes


def read_buffer(path, expected_command: Command) -> list[DemoSample]:
    samples = []
    with open(path, "rb") as fh:  # decoded line by line, so a bad byte names its line
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(path, line_no, f"not UTF-8 text ({exc.reason})") from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(path, line_no, f"invalid JSON ({exc.msg})") from exc
            keys = record.keys() if isinstance(record, dict) else set()
            if keys != _RECORD_KEYS:
                raise DatasetFormatError(path, line_no, f"missing fields {sorted(_RECORD_KEYS - keys)}, "
                                         f"unexpected fields {sorted(keys - _RECORD_KEYS)}: {_RECOLLECT}")
            try:
                sample = _record_to_sample(record)
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetFormatError(path, line_no, str(exc)) from exc
            if sample.command is not expected_command:
                raise DatasetFormatError(path, line_no,
                                         f"command {sample.command.value!r} in the "
                                         f"{expected_command.value!r} buffer")
            if samples and len(sample.features) != len(samples[0].features):
                raise DatasetFormatError(path, line_no, f"S has {len(sample.features)} rows, but the "
                                         f"buffer's first record has {len(samples[0].features)}")
            samples.append(sample)
    return samples


def read_dataset(directory) -> DemoDataset:
    directory = Path(directory)
    dataset = DemoDataset()
    manifest_path = directory / "manifest.json"
    try:
        dataset.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DatasetFormatError(manifest_path, None, f"missing: {_RECOLLECT}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(manifest_path, exc.object.count(b"\n", 0, exc.start) + 1,
                                 f"not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(manifest_path, exc.lineno, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(dataset.manifest, dict):
        raise DatasetFormatError(manifest_path, 1, "not a JSON object")
    version = dataset.manifest.get("schema_version")
    if not has_type_of(version, SCHEMA_VERSION) or version != SCHEMA_VERSION:
        raise DatasetFormatError(manifest_path, None, f"schema_version {version!r}: {_RECOLLECT}")
    try:
        require_types(dataset.manifest, GraphConfig().feature_settings())
    except ValueError as exc:
        raise DatasetFormatError(manifest_path, None, f"{exc}: {_RECOLLECT}") from exc
    counts = dataset.manifest.get("counts")
    for command, filename in BUFFER_FILES.items():
        path = directory / filename
        if not path.exists():
            raise FileNotFoundError(f"missing buffer file {path}")
        dataset.buffers[command] = read_buffer(path, command)
        expected = counts.get(command.value) if isinstance(counts, dict) else None
        if expected != len(dataset.buffers[command]):
            raise DatasetFormatError(path, None, f"{len(dataset.buffers[command])} records, but "
                                     f"{manifest_path} counts {expected!r}: re-collect it with "
                                     "`graphnav collect`")
    return dataset
