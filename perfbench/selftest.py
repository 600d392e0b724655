"""Self-test of the benchmark's input generators.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that a fixed seed gives byte-identical inputs across calls and that
another seed gives other bytes, that generated tokens pass hsel's
preprocessing unchanged, and that generated classifier ids parse as
``EXTRACTOR-ALGORITHM``. Exits 0 when every check passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))


def params(cfg: dict) -> dict:
    return {key: value for key, value in cfg.items() if key != "kind"}


def input_bytes(seed: int, cfg: dict) -> bytes:
    if cfg["kind"] == "zipf":
        return gen.corpus_csv(gen.zipf_corpus(seed, **params(cfg)))
    ids, splits = gen.prediction_matrices(seed, **params(cfg))
    out = b""
    for tag in ("VALIDATION", "TEST"):
        body, sidecar = gen.matrix_files(ids, *splits[tag], cfg["num_classes"], tag)
        out += body + sidecar
    return out


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from hsel.core import ClassifierId
    from hsel.preprocess import preprocess

    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    failures = []
    for name, spec in workloads.items():
        cfg = spec["input"]
        if cfg["kind"] == "bundled":
            continue
        first, again, other = (input_bytes(seed, cfg) for seed in (7, 7, 8))
        if first != again:
            failures.append(f"{name}: seed 7 gave different bytes on two calls")
        if first == other:
            failures.append(f"{name}: seeds 7 and 8 gave the same bytes")
        print(f"{name}: {len(first)} bytes, sha256 {hashlib.sha256(first).hexdigest()[:16]}")
        if cfg["kind"] == "zipf":
            rows = gen.zipf_corpus(7, **params(cfg))
            if any(preprocess(text) != text.rstrip(".").split() for text, _ in rows):
                failures.append(f"{name}: a generated document changes under preprocessing")
        else:
            for raw in gen.prediction_matrices(7, **params(cfg))[0]:
                if ClassifierId.parse(raw).canonical != raw:
                    failures.append(f"{name}: id {raw!r} does not parse as EXTRACTOR-ALGORITHM")
    for index in (0, 1, 4999, gen.MAX_VOCAB - 1):
        token = gen.word(index)
        if preprocess(token) != [token]:
            failures.append(f"token {token!r} does not pass preprocessing unchanged")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
