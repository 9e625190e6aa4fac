"""Run manifests: config hash, seeds, and a hashed inventory of produced files."""

from __future__ import annotations

import datetime
import hashlib
import json
from pathlib import Path

from . import __version__
from .atomic import atomic_write
from .config import config_hash

MANIFEST_SCHEMA_VERSION = 1


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, subcommand: str, cfg: dict, seeds: dict,
                   files, started: str, extra: dict | None = None) -> Path:
    out_dir = Path(out_dir)
    inventory = {}
    for path in files:
        path = Path(path)
        rel = path.relative_to(out_dir) if path.is_relative_to(out_dir) else path
        inventory[str(rel)] = file_sha256(path)
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool_version": __version__,
        "subcommand": subcommand,
        "config_hash": config_hash(cfg),
        "effective_config": cfg,
        "seeds": seeds,
        "started_utc": started,
        "finished_utc": now_utc(),
        "files": inventory,
    }
    if extra:
        doc.update(extra)
    path = out_dir / "run_manifest.json"
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def now_utc() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()
