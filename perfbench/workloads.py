"""The three workloads: their seeded inputs, their units of work, and the
checks that hold every operation to pinned, oracle-derived answers.

Why each workload exists:

* ``ref-report`` is the paper's reference run as a user types it:
  ``sigforge report --format json`` with no start set, so Hadamard 16 grown
  to K = 32 with ``sd``, audited by the exhaustive scan on every step
  (L = 16 is inside the automatic audit range). R is maximally degenerate,
  ties everywhere defeat pruning and the walk dominates: the worst steps
  visit 65,535 nodes, 528,169 in total. Import, audit scan and
  serialization are the smaller parts. At L = 16 the automatic audit makes
  even a ``--method ml`` chain run the full sphere walk (6.4 s against
  8.3 s for ``sd``, single runs), so there is no separate ml-chain
  workload: the "sd vs ml" comparison is read from
  ``sphere.sphere_search.self_s`` against ``sphere.ml_exhaustive.self_s`` on
  the same steps of this workload.
* ``random-extend`` calls ``load_set``, ``extend_once(..., "sd")`` and
  ``save_set`` in a Python process on seeded random sets with L = 18 and
  K = 27 (K = 1.5 L), where the audit is off by default. R is
  non-degenerate, so pruning works, and the two Jacobi solves per step are
  the largest share (about 60% of self time), so this is the ``linalg`` and
  duplicate-pipeline (``harness``) workload; the scan does no work here.
  The random walk cost varies by seed, more so as L grows: at L = 24 two
  seeds gave 40k and 155k nodes (about 4x), and twelve seeds here gave 1.7k
  to 982k nodes (0.13 to 9.9 s). With L = 18 to 24, or 18 and 20, the
  spread of the per-run median over five seeds (quartile distance over
  median) was 0.11 to 0.34, wider than any usable bound; at L = 18 alone it
  is about 0.06. Each unit is a fresh worker over 25 sets, so peak
  memory is that of a process doing only this work.
* ``oracle-compare`` runs ``sigforge compare`` as a subprocess on seeded
  random set files at L = 21: quant, descent, ``sd`` and ``ml`` on each.
  The exhaustive scan is most of the time (0.67 of 0.8 s per file), so
  this is where a faster or leaner scan shows, in ``solve_s`` and
  ``peak_rss_mb``; the walk is a small share. Each call gets one file: a
  call over several files sums several walks, whose seed-dependent cost
  then moves every sample, while a median over single files ignores the
  rare slow walk.

An operation is one extension step or one compare row. Each is checked
against answers derived from ``oracle`` (never from sigforge itself) and
cached per seed; a mismatch, a raised error or a non-zero exit counts as a
failed operation. ``lambda_min``, ``radius_c``, ``fp_bound``,
``nodes_visited`` and ``candidates_enumerated`` are not pinned: the package
may change them without changing a result. All times are scaled to the
reference machine speed (see ``calibrate``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import oracle

HERE = Path(__file__).resolve().parent

# Inputs per workload. K = 1.5 L throughout, as in the random experiments.
# Pools hold distinct sets: a run moves through its pool one unit at a time
# (and starts over if it gets to the end), so each run's median rests on
# many independent inputs and differs little from seed to seed.
RANDOM_LENGTHS = (18,)
RANDOM_SETS_PER_LENGTH = 200
RANDOM_UNIT_SETS = 25
# Sets in one traced sweep of random-extend (the first ones of the pool).
RANDOM_TRACE_SETS = 32
COMPARE_LENGTH = 21
COMPARE_FILES = 16
REFERENCE_START = 16
REFERENCE_TARGET = 32
# Wall-clock cap on one child process, far above any healthy unit.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """Verdict on one operation."""

    ok: bool
    proven: bool


@dataclass
class Sample:
    """One timed piece of work (a CLI call or one in-process operation),
    with times already scaled to the reference speed."""

    wall_s: float
    cpu_s: float
    rss_mb: float | None
    outcomes: list
    scale: float = 1.0
    key: str = ""


def random_rows(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.choice(np.array([-1, 1], dtype=np.int64), size=(3 * length // 2, length))


def hadamard_rows(length: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < length:
        h = np.block([[h, h], [h, -h]])
    return h


def reference_chain(rows: np.ndarray, target_k: int) -> list:
    """Oracle answers for growing ``rows`` one optimal signature at a time."""
    steps = []
    while rows.shape[0] < target_k:
        metric, best = oracle.exhaustive_min(oracle.correlation(rows))
        rows = np.vstack([rows, best])
        steps.append({"k_after": rows.shape[0], "metric": metric,
                      "tsc_after": oracle.tsc_of_rows(rows)})
    return steps


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(mode: str, args: list, root: Path, cwd: Path, stdout_path: Path | None = None):
    """Run ``child.py MODE ARGS`` with the checkout's ``src`` on its path.

    Returns (exit code, wall s, user+sys CPU s, peak RSS MB) of that one
    child, from its own rusage; the times exclude the child's calibration
    kernels and are scaled to the reference speed.
    """
    times_path = cwd / "times.json"
    times_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), str(times_path), mode, *args]
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(stdout_path, "wb")) if stdout_path else subprocess.DEVNULL
        err = stack.enter_context(open(cwd / "stderr.txt", "ab"))
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=cwd, env=child_env(root), stdout=out, stderr=err)
        # extend mode scales each operation itself, between operations.
        probe = calibrate.ChildProbe(proc.pid, enabled=mode != "extend")
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            probe.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss = usage.ru_maxrss / 1024.0
    cpu = usage.ru_utime + usage.ru_stime
    try:
        times = json.loads(times_path.read_text())
        factor = calibrate.scale(times["speed_s"] + probe.readings)
        spent = times["kernel_s"]
    except (OSError, ValueError, KeyError, TypeError):
        # The child died before writing its readings: unscaled times, and a
        # failed exit code so that its operations count as failed.
        return proc.returncode or 1, wall, cpu, rss
    return proc.returncode, (wall - spent) * factor, (cpu - spent) * factor, rss


def time_setup(root: Path, cwd: Path, files: list) -> float:
    """Scaled wall time of a fresh interpreter that imports sigforge and
    loads (or builds) the inputs of the first unit."""
    code, wall, _, _ = run_child("setup", files, root, cwd)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return wall


@contextlib.contextmanager
def in_this_process(timed: list):
    """Times a block in this process; appends (scaled wall, scaled CPU,
    scale factor)."""
    before = calibrate.speed_s()
    cpu0 = time.process_time()
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    factor = calibrate.scale([before, calibrate.speed_s()])
    timed.append((wall * factor, cpu * factor, factor))


class Workload:
    """Base: ``prepare`` writes inputs and expected answers. A unit is a
    list of input file names; ``untraced(unit)`` runs it the way a user
    would, ``in_process(unit)`` runs it in this process (traced when a
    tracer is installed). ``units`` is the run's cycle of units and
    ``trace_unit`` the fixed one that traced runs repeat."""

    name = ""
    cli = True

    def __init__(self, root: Path, workdir: Path, cache_dir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.cache_dir = cache_dir
        self.seed = seed
        self.expected = None
        self.files: list = []

    @property
    def cache_path(self) -> Path:
        return self.cache_dir / f"{self.name}-seed{self.seed}.json"

    def prepare(self) -> None:
        """Write the inputs and load their answers from the per-seed cache,
        computing them with the oracle when the cache does not hold answers
        for exactly these inputs."""
        inputs = self.make_inputs()
        digest = hashlib.sha256()
        for name, rows in sorted(inputs.items()):
            text = oracle.set_text(rows)
            (self.workdir / name).write_text(text)
            digest.update(f"{name}\0{text}\0".encode())
        self.files = sorted(inputs)
        key = digest.hexdigest()
        cached = json.loads(self.cache_path.read_text()) if self.cache_path.exists() else {}
        if cached.get("inputs_sha256") == key:
            self.expected = cached["answers"]
        else:
            self.expected = self.expected_answers(inputs)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self.cache_path.write_text(json.dumps(
                {"inputs_sha256": key, "answers": self.expected}, indent=1, sort_keys=True))

    def make_inputs(self) -> dict:
        return {}

    def expected_answers(self, inputs: dict):
        raise NotImplementedError

    @property
    def units(self) -> list:
        return [[name] for name in self.files]

    @property
    def trace_unit(self) -> list:
        return self.units[0]

    # CLI workloads: one unit is one sigforge command.
    def argv(self, unit: list) -> list:
        raise NotImplementedError

    def verify(self, unit: list, exit_code: int | None, stdout: bytes) -> list:
        raise NotImplementedError

    def untraced(self, unit: list) -> list:
        stdout_path = self.workdir / "stdout.txt"
        code, wall, cpu, rss = run_child("cli", self.argv(unit), self.root, self.workdir,
                                         stdout_path)
        outcomes = self.verify(unit, code, stdout_path.read_bytes())
        return [Sample(wall, cpu, rss, outcomes, key=" ".join(unit))]

    def in_process(self, unit: list, tracer=None) -> list:
        import sigforge.cli

        buffer = io.StringIO()
        timed: list = []
        previous = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(buffer), in_this_process(timed):
                try:
                    code = sigforge.cli.main(self.argv(unit))
                except Exception as exc:  # counted as failed operations below
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = None
        finally:
            os.chdir(previous)
        (wall, cpu, factor), = timed
        stdout = buffer.getvalue().encode("utf-8")
        return [Sample(wall, cpu, None, self.verify(unit, code, stdout), factor)]


class RefReport(Workload):
    name = "ref-report"

    @property
    def cache_path(self) -> Path:
        # The reference run has no seeded input.
        return self.cache_dir / f"{self.name}.json"

    def expected_answers(self, inputs):
        return {"steps": reference_chain(hadamard_rows(REFERENCE_START), REFERENCE_TARGET)}

    @property
    def units(self) -> list:
        return [[]]

    def argv(self, unit):
        return ["report", "--format", "json", "--out", "report.json"]

    def verify(self, unit, exit_code, stdout):
        expected = self.expected["steps"]
        report = self.workdir / "report.json"
        try:
            steps = json.loads(report.read_bytes())["steps"] if exit_code == 0 else []
        except (OSError, ValueError, KeyError, TypeError):
            steps = []
        finally:
            report.unlink(missing_ok=True)
        outcomes = []
        for index, want in enumerate(expected):
            got = steps[index] if index < len(steps) and isinstance(steps[index], dict) else {}
            ok = all(got.get(key) == value for key, value in want.items())
            outcomes.append(Outcome(ok, ok and got.get("audit_agreement") is True))
        return outcomes


class OracleCompare(Workload):
    name = "oracle-compare"

    def make_inputs(self) -> dict:
        rng = np.random.default_rng(self.seed)
        inputs = {}
        for index in range(COMPARE_FILES):
            rows = random_rows(rng, COMPARE_LENGTH)
            # A set whose quantized eigenvector rounding could flip has no
            # well-defined quant column; draw another.
            while oracle.quantized_eigvec(oracle.correlation(rows)) is None:
                rows = random_rows(rng, COMPARE_LENGTH)
            inputs[f"set-{index:02d}-L{COMPARE_LENGTH}.txt"] = rows
        return inputs

    def expected_answers(self, inputs):
        return {name: oracle.compare_line(name, rows) for name, rows in inputs.items()}

    def argv(self, unit):
        return ["compare", *unit]

    def verify(self, unit, exit_code, stdout):
        want = [oracle.COMPARE_HEADER] + [self.expected[name] for name in unit]
        got = stdout.decode("utf-8", "replace").splitlines() if exit_code == 0 else []
        header_ok = bool(got) and got[0] == want[0]
        outcomes = []
        for index, line in enumerate(want[1:], start=1):
            ok = header_ok and index < len(got) and got[index] == line
            cells = got[index].split(",") if ok else []
            outcomes.append(Outcome(ok, ok and cells[6] == cells[7]))
        return outcomes


class RandomExtend(Workload):
    name = "random-extend"
    cli = False

    def make_inputs(self) -> dict:
        rng = np.random.default_rng(self.seed)
        inputs = {}
        for index in range(RANDOM_SETS_PER_LENGTH):
            for length in RANDOM_LENGTHS:
                inputs[f"set-{index:03d}-L{length}.txt"] = random_rows(rng, length)
        return inputs

    def expected_answers(self, inputs):
        answers = {}
        for name, rows in inputs.items():
            metric, best = oracle.exhaustive_min(oracle.correlation(rows))
            grown = np.vstack([rows, best])
            answers[name] = {"metric": metric, "tsc_after": oracle.tsc_of_rows(grown),
                             "set": oracle.set_text(grown)}
        return answers

    @property
    def units(self) -> list:
        size = RANDOM_UNIT_SETS
        return [self.files[i:i + size] for i in range(0, len(self.files), size)]

    @property
    def trace_unit(self) -> list:
        return self.files[:RANDOM_TRACE_SETS]

    def group_of(self, name: str) -> str:
        return name.rsplit("-", 1)[1].split(".")[0]

    def untraced(self, unit):
        out_dir = self.workdir / "out"
        out_dir.mkdir(exist_ok=True)
        stdout_path = self.workdir / "stdout.txt"
        code, _, _, rss = run_child("extend", [str(out_dir), *unit], self.root, self.workdir,
                                    stdout_path)
        reports = {}
        for line in stdout_path.read_text().splitlines():
            try:
                report = json.loads(line)
                reports[report["name"]] = report
            except (ValueError, KeyError, TypeError):
                continue
        samples = []
        for name in unit:
            report = reports.get(name, {})
            if report.get("error"):
                print(f"{name}: {report['error']}", file=sys.stderr)
            outcome = self._verify(name, report.get("metric"), report.get("tsc_after"),
                                   report.get("agreement"), out_dir / name)
            if code != 0:
                outcome = Outcome(False, False)
            samples.append(Sample(report.get("wall_s", 0.0), report.get("cpu_s", 0.0), rss,
                                  [outcome], key=name))
        return samples

    def in_process(self, unit, tracer=None) -> list:
        import sigforge

        samples = []
        for name in unit:
            if tracer is not None:
                tracer.group = self.group_of(name)
            target = self.workdir / ("out-" + name)
            record = agreement = None
            timed: list = []
            with in_this_process(timed):
                try:
                    loaded = sigforge.load_set(self.workdir / name)
                    extended, record, agreement = sigforge.extend_once(loaded, "sd")
                    sigforge.save_set(extended, target)
                except Exception as exc:  # every failure is counted, none stops the run
                    print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            (wall, cpu, factor), = timed
            metric = record.metric if record else None
            tsc_after = record.tsc_after if record else None
            outcome = self._verify(name, metric, tsc_after, agreement, target)
            samples.append(Sample(wall, cpu, None, [outcome], factor))
        return samples

    def _verify(self, name, metric, tsc_after, agreement, target: Path) -> Outcome:
        want = self.expected[name]
        try:
            written = target.read_text()
            target.unlink()
        except OSError:
            written = None
        ok = (metric == want["metric"] and tsc_after == want["tsc_after"]
              and written == want["set"])
        return Outcome(ok, ok and agreement is True)


WORKLOADS = {cls.name: cls for cls in (RefReport, RandomExtend, OracleCompare)}
