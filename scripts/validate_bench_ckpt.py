#!/usr/bin/env python3
"""Schema check for BENCH_ckpt.json (emitted by the ckpt_stall bench).

Usage: validate_bench_ckpt.py [path]           (default: BENCH_ckpt.json)

Fails (exit 1) when a required field is missing or mistyped, when any
arm recorded no checkpoints or no restart-point stalls, when the sync arm
reports a drain (it must not have one), when a background-drain arm
reports none, or when the async drain's p99 stall speedup falls below the
floor (2x by default; override with CKPT_MIN_SPEEDUP for noisy shared
runners). `stw_mean_ns` is the same window in every arm (timer raised to
timer released), so no ratio between arms is floored: ring depth does not
shrink it.
"""

import json
import os
import sys

MODE_FIELDS = (
    ("mops", (int, float)),
    ("ckpts", int),
    ("ckpts_per_sec", (int, float)),
    ("stall_count", int),
    ("stall_p50_ns", int),
    ("stall_p99_ns", int),
    ("stall_mean_ns", (int, float)),
    ("stw_mean_ns", (int, float)),
    ("drain_mean_ns", (int, float)),
    ("drain_pushouts", int),
)


def fail(msg: str) -> None:
    print(f"BENCH_ckpt.json invalid: {msg}", file=sys.stderr)
    sys.exit(1)


def check_mode(doc: dict, name: str) -> dict:
    m = doc.get(name)
    if not isinstance(m, dict):
        fail(f"{name} must be an object, got {type(m).__name__}")
    for field, ty in MODE_FIELDS:
        if not isinstance(m.get(field), ty):
            fail(f"{name}.{field} missing or not {ty}")
    if m["ckpts"] <= 0:
        fail(f"{name} arm completed no checkpoints")
    if m["stall_count"] <= 0:
        fail(f"{name} arm recorded no RP stalls — nothing was measured")
    if m["stall_p50_ns"] > m["stall_p99_ns"]:
        fail(f"{name} stall percentiles not monotone: {m}")
    return m


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_ckpt.json"
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")

    if doc.get("bench") != "ckpt_stall":
        fail(f"bench field is {doc.get('bench')!r}, expected 'ckpt_stall'")
    for field, ty in (
        ("threads", int),
        ("secs", (int, float)),
        ("reps", int),
        ("period_ms", int),
        ("pipeline", int),
        ("p50_speedup", (int, float)),
        ("p99_speedup", (int, float)),
    ):
        if not isinstance(doc.get(field), ty):
            fail(f"{field} missing or not {ty}")
    if doc["pipeline"] < 2:
        fail(f"pipeline depth {doc['pipeline']} — the pipelined arm needs K >= 2")

    sync = check_mode(doc, "sync")
    async_ = check_mode(doc, "async")
    pipelined = check_mode(doc, "pipelined")

    if sync["drain_mean_ns"] != 0:
        fail(f"sync arm reports a background drain: {sync['drain_mean_ns']}")
    if async_["drain_mean_ns"] <= 0:
        fail("async arm reports no background drain — mode flag ignored?")
    if pipelined["drain_mean_ns"] <= 0:
        fail("pipelined arm reports no executor drain — mode flag ignored?")

    floor = float(os.environ.get("CKPT_MIN_SPEEDUP", "2.0"))
    if doc["p99_speedup"] < floor:
        fail(
            f"async p99 stall speedup {doc['p99_speedup']:.2f}x is below the "
            f"{floor}x floor (sync {sync['stall_p99_ns']}ns, "
            f"async {async_['stall_p99_ns']}ns)"
        )

    print(
        f"BENCH_ckpt.json OK: stall p99 {sync['stall_p99_ns'] / 1e3:.1f}us -> "
        f"{async_['stall_p99_ns'] / 1e3:.1f}us ({doc['p99_speedup']:.2f}x), "
        f"stw mean {sync['stw_mean_ns'] / 1e3:.1f}us sync / "
        f"{async_['stw_mean_ns'] / 1e3:.1f}us async / "
        f"{pipelined['stw_mean_ns'] / 1e3:.1f}us pipelined (K={doc['pipeline']}), "
        f"ckpts/s {sync['ckpts_per_sec']:.1f} sync / "
        f"{async_['ckpts_per_sec']:.1f} async / "
        f"{pipelined['ckpts_per_sec']:.1f} pipelined, "
        f"{async_['drain_pushouts']} push-outs"
    )


if __name__ == "__main__":
    main()
