"""Work done in a fresh interpreter, between timings of the calibration kernel.

Usage: python3 perfbench/child.py TIMES_FILE MODE ARG...

MODE is one of

* ``cli ARGV...``: ``sigforge.cli.main(ARGV)``, exiting with its code;
* ``setup FILE...``: import sigforge and load the files (or build the
  Hadamard start when there are none);
* ``extend OUT_DIR FILE...``: per file, ``load_set``, ``extend_once(...,
  "sd")`` and ``save_set`` into OUT_DIR, printing one JSON line per file with
  its wall and CPU time already scaled by ``calibrate`` and the record's
  metric, tsc_after and audit flag.

TIMES_FILE receives the speed readings taken before and after the work and
the total time spent taking them, so the parent can take that time out of
the child's wall and CPU time and scale the rest. The readings come first,
before sigforge is imported, so the import still counts in the work.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import calibrate


def _extend(out_dir: str, names: list) -> None:
    import sigforge

    before = calibrate.speed_s()
    for name in names:
        result = {"name": name, "error": None}
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            loaded = sigforge.load_set(name)
            extended, record, agreement = sigforge.extend_once(loaded, "sd")
            sigforge.save_set(extended, Path(out_dir) / name)
        except Exception as exc:  # reported per file; the parent counts it as failed
            result["error"] = f"{type(exc).__name__}: {exc}"
        else:
            result.update(metric=record.metric, tsc_after=record.tsc_after, agreement=agreement)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        after = calibrate.speed_s()
        factor = calibrate.scale([before, after])
        result.update(wall_s=wall * factor, cpu_s=cpu * factor)
        print(json.dumps(result), flush=True)
        before = after


def _setup(names: list) -> None:
    import sigforge

    sets = [sigforge.load_set(name) for name in names]
    if not sets:
        sigforge.hadamard_set(16)


def main(times_file: str, mode: str, args: list) -> int:
    start = time.perf_counter()
    calibrate.kernel_s()  # the first run in a process is slower
    readings = [calibrate.speed_s()]
    spent = time.perf_counter() - start
    code = 0
    try:
        if mode == "cli":
            import sigforge.cli

            code = sigforge.cli.main(args)
        elif mode == "setup":
            _setup(args)
        elif mode == "extend":
            _extend(args[0], args[1:])
        else:
            raise ValueError(f"unknown mode {mode!r}")
    finally:
        start = time.perf_counter()
        readings.append(calibrate.speed_s())
        spent += time.perf_counter() - start
        with open(times_file, "w", encoding="utf-8") as handle:
            json.dump({"speed_s": readings, "kernel_s": spent}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
