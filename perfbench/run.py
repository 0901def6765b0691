"""Benchmark of the wishartmix command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload manova_csv --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

Each workload is a closed loop of one client in one process: an operation is
one ``wishartmix.cli.main(argv)`` call, made in-process with its output
captured, and the next starts when it returns.  Inputs and the seeds inside
each operation derive from ``--seed``.  Every operation's output is checked
(see ``checks.py``).  One untimed warm-up operation precedes the timed loop,
which runs for ``--seconds`` plus the time of the five set-up probes
spread through it (``setup_s`` is their median).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced operations with operations run under the
layer wrappers of ``tracing.py`` and reports the per-layer metrics, each the
median over traced operations of its per-operation value.

A fixed reference kernel (:class:`ReferenceKernel`) runs between operations.
Host speed on a shared machine drifts by up to about 1.6x, within seconds and
between processes, so the ``*_ref`` metrics divide each operation's wall time
by the reference time measured around it; raw seconds are reported beside
them in the result file and the summary.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with an
environment block, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# Pinned before numpy is imported; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 5
REF_REPS = 3
# Each run cycles over this many operation seeds derived from --seed.
OP_SEEDS = 4


# --------------------------------------------------------------------------
# workloads


def _op_seeds(gen: np.random.Generator) -> list[int]:
    return [int(s) for s in gen.integers(1, 2**31, size=OP_SEEDS)]


def write_design_csv(path: Path, gen: np.random.Generator) -> None:
    """Long-format 5 x 7 design, d = 2, ragged cells of 1,500-4,000 rows.

    Factor A carries a strong random effect (covariance 9 I against a unit
    error scale with correlation 0.5); B and AB carry none.
    """
    a, b = 5, 7
    counts = gen.integers(1500, 4001, size=(a, b))
    alpha = 3.0 * gen.standard_normal((a, 2))
    err_root = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
    ia = np.repeat(np.arange(a), counts.sum(axis=1))
    ib = np.concatenate([np.repeat(np.arange(b), counts[i]) for i in range(a)])
    y = alpha[ia] + gen.standard_normal((ia.size, 2)) @ err_root.T
    order = gen.permutation(ia.size)
    rows = zip(ia[order].tolist(), ib[order].tolist(), y[order].tolist())
    lines = ["factor_a,factor_b,y1,y2"]
    lines += [f"a{i},b{j},{y1!r},{y2!r}" for i, j, (y1, y2) in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class ManovaCsv:
    """``manova --n-per-cell 3 --n-mc 100000 --functional wilks --json`` on a ~100k-row CSV."""

    name = "manova_csv"
    n_mc = 100_000
    draws_per_op = 3 * n_mc

    def __init__(self, seed: int, workdir: Path) -> None:
        gen = np.random.default_rng([seed, 1])
        self.csv = workdir / "design.csv"
        self.report = workdir / "report.json"
        write_design_csv(self.csv, gen)
        self.seeds = _op_seeds(gen)

    def argv(self, k: int) -> list[str]:
        s = str(self.seeds[k % len(self.seeds)])
        self.report.unlink(missing_ok=True)
        return [
            "manova", "--input", str(self.csv), "--responses", "y1,y2", "--n-per-cell", "3",
            "--n-mc", str(self.n_mc), "--functional", "wilks", "--json", str(self.report),
            "--subsample-seed", s, "--mc-seed", s,
        ]  # fmt: skip

    def check(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"manova exited with code {code}"]
        return checks.check_manova_report(json.loads(self.report.read_text(encoding="utf-8")))


class ClosureVerify:
    """``verify --dim 3 --dof 6 --n-draws 200000 --specs 1``, cycling over seeds."""

    name = "closure_verify"
    n_draws = 200_000
    draws_per_op = 2 * n_draws

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = _op_seeds(np.random.default_rng([seed, 2]))

    def argv(self, k: int) -> list[str]:
        s = str(self.seeds[k % len(self.seeds)])
        return ["verify", "--dim", "3", "--dof", "6", "--n-draws", str(self.n_draws), "--specs", "1", "--seed", s]

    def check(self, code: int, stdout: str) -> list[str]:
        return checks.check_verify_exit(code)


class NullCalibrate:
    """``calibrate --a 5 --b 6 --n 5 --dim 2 --datasets 200 --n-mc 2000``."""

    name = "null_calibrate"
    datasets = 200
    n_mc = 2000
    draws_per_op = 3 * datasets * n_mc

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = _op_seeds(np.random.default_rng([seed, 3]))

    def argv(self, k: int) -> list[str]:
        s = str(self.seeds[k % len(self.seeds)])
        return [
            "calibrate", "--a", "5", "--b", "6", "--n", "5", "--dim", "2",
            "--datasets", str(self.datasets), "--n-mc", str(self.n_mc), "--seed", s,
        ]  # fmt: skip

    def check(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"calibrate exited with code {code}"]
        return checks.check_calibration_text(stdout, self.datasets)


WORKLOAD_CLASSES = {cls.name: cls for cls in (ManovaCsv, ClosureVerify, NullCalibrate)}


# --------------------------------------------------------------------------
# environment and host speed


class ReferenceKernel:
    """Fixed work, independent of the package, whose time tracks host speed.

    It mixes the three kinds of work the workloads spend their time in:
    interpreter-bound parsing and sorting of 10,000 float tokens, 20 small
    numpy calls (normal draws and ``eigvalsh`` of 1,000 2x2 matrices), and
    one batched ``eigvalsh`` of 4,096 3x3 matrices.
    """

    def __init__(self) -> None:
        gen = np.random.default_rng(20250213)
        a = gen.standard_normal((4096, 3, 3))
        self.stack = a @ np.swapaxes(a, -1, -2)
        self.tokens = [repr(v) for v in gen.standard_normal(10_000).tolist()]

    def once(self) -> float:
        start = time.perf_counter()
        sorted(float(t) for t in self.tokens)
        gen = np.random.default_rng(1)
        for _ in range(20):
            x = gen.standard_normal((1000, 2, 2))
            np.linalg.eigvalsh(x @ np.swapaxes(x, -1, -2))
        np.linalg.eigvalsh(self.stack)
        return time.perf_counter() - start

    def sample(self) -> float:
        return statistics.median(self.once() for _ in range(REF_REPS))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "seed": seed,
    }


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports ``wishartmix.cli``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import wishartmix.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# the closed loop


def run_op(cli, workload, k: int) -> tuple[float, list[str]]:
    """One operation through ``cli.main``; returns its wall time and problems."""
    argv = workload.argv(k)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            elapsed = time.perf_counter() - start
            return elapsed, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
    try:
        problems = workload.check(code, out.getvalue())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if problems and err.getvalue():
        problems.append(err.getvalue().strip())
    return elapsed, problems


def measure(cli, workload, seconds: float, traced_mode: bool, ref: ReferenceKernel, tracer) -> dict:
    ops = []  # (elapsed_s, reference_s, traced)
    problems = []
    attempted = failed = 0

    def one(k: int, traced: bool) -> float:
        nonlocal attempted, failed
        if traced:
            tracer.op = k
            tracer.install()
        try:
            elapsed, op_problems = run_op(cli, workload, k)
        finally:
            if traced:
                tracer.uninstall()
        attempted += 1
        if op_problems:
            failed += 1
            problems.append({"op": k, "argv": workload.argv(k), "problems": op_problems})
        return elapsed

    one(0, False)  # warm-up: untimed, but checked
    # Set-up probes are spread over the run, between operations, so that
    # setup_s samples the same host conditions as the operations; the loop is
    # extended by their time.
    setup: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    ref_before = ref.sample()
    k = 1
    while time.perf_counter() < deadline or not any(not t for *_, t in ops) or (
        traced_mode and not any(t for *_, t in ops)
    ):
        if len(setup) < SETUP_PROBES and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe())
            deadline += setup[-1]
            ref_before = ref.sample()
        traced = traced_mode and k % 2 == 0
        elapsed = one(k, traced)
        ref_after = ref.sample()
        ops.append((elapsed, (ref_before + ref_after) / 2, traced))
        ref_before = ref_after
        k += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    return {"ops": ops, "setup": setup, "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end_metrics(workload, ops, setup: list[float]) -> dict[str, float]:
    plain = [(t, r) for t, r, traced in ops if not traced]
    times = [t for t, _ in plain]
    ratios = [t / r for t, r in plain]
    draws = workload.draws_per_op * len(plain)
    return {
        "op_s_p50": statistics.median(times),
        "op_ref_p50": statistics.median(ratios),
        "draws_per_s": draws / sum(times),
        "draws_per_ref": draws / sum(ratios),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, ops) -> dict[str, float]:
    per_op: dict[int, list] = {}
    for span in tracer.spans:
        per_op.setdefault(span.op, []).append(span)
    rows = []
    for spans in per_op.values():
        m = tracing.op_metrics(spans)
        m.update(tracing.derived_metrics(m))
        rows.append(m)
    keys = sorted({key for row in rows for key in row})
    out = {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}
    for layer in tracing.LAYERS:
        out[f"{layer}.errors"] = float(sum(row.get(f"{layer}.errors", 0.0) for row in rows))
    traced = statistics.median(t for t, _, is_traced in ops if is_traced)
    plain = statistics.median(t for t, _, is_traced in ops if not is_traced)
    out["trace.overhead_ratio"] = traced / plain
    return out


def run_workload(name: str, seed: int, seconds: float, traced_mode: bool, spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        import wishartmix.cli as cli  # compiled before the set-up probes

        ref = ReferenceKernel()
        env = environment(seed)
        env["ref_kernel_s_start"] = ref.sample()
        workload = WORKLOAD_CLASSES[name](seed, workdir)
        tracer = tracing.Tracer()
        run = measure(cli, workload, seconds, traced_mode, ref, tracer)
        env["ref_kernel_s_end"] = ref.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = end_to_end_metrics(workload, run["ops"], run["setup"])
    metrics["error_rate"] = run["failed"] / run["attempted"]
    if traced_mode:
        metrics.update(per_layer_metrics(tracer, run["ops"]))
        tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
    wanted = spec["per_layer"] if traced_mode else spec["end_to_end"]
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name,
        "trace": int(traced_mode),
        "seconds": seconds,
        "env": env,
        "result": result,
        "all_metrics": metrics,
        "setup_s": run["setup"],
        "ops": [{"s": t, "ref_s": r, "traced": tr} for t, r, tr in run["ops"]],
        "problems": run["problems"][:20],
    }
    (OUT / f"{name}-seed{seed}-trace{int(traced_mode)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def summary_lines(record: dict) -> list[str]:
    m = record["all_metrics"]
    env = record["env"]
    n = sum(not op["traced"] for op in record["ops"])
    lines = [
        f"{record['workload']}: {n} timed ops, {record['result']['attempted']} checked, "
        f"{record['result']['failed']} failed; reference kernel {env['ref_kernel_s_start'] * 1e3:.2f} ms at start, "
        f"{env['ref_kernel_s_end'] * 1e3:.2f} ms at end",
        f"  op_s_p50       {m['op_s_p50']:.4f} s",
        f"  op_ref_p50     {m['op_ref_p50']:.3f} ref",
        f"  draws_per_s    {m['draws_per_s']:.0f} 1/s",
        f"  draws_per_ref  {m['draws_per_ref']:.0f} 1/ref",
        f"  setup_s        {m['setup_s']:.4f} s",
        f"  peak_rss_mb    {m['peak_rss_mb']:.1f} MB",
        f"  error_rate     {m['error_rate']:.4f} ratio",
    ]
    for p in record["problems"][:3]:
        lines.append(f"  FAILED op {p['op']}: {'; '.join(p['problems'])}")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    records = {}
    for name in WORKLOAD_CLASSES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        records[name] = json.loads(path.read_text(encoding="utf-8"))
    combined = OUT / f"all-seed{args.seed}-trace{args.trace}.json"
    combined.write_text(json.dumps({"workloads": records}, indent=1) + "\n")
    results = [r["result"] for r in records.values()]
    print(f"wrote {combined.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{name}.{k}": v for name, r in records.items() for k, v in r["result"]["metrics"].items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_CLASSES, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wishartmix" / "cli.py").is_file():
        print(f"error: {SRC / 'wishartmix'} not found; run from the root of a wishartmix checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print("\n".join(summary_lines(record)))
    if args.trace:
        for name, value in record["result"]["metrics"].items():
            print(f"  {name:<40} {value['value']:.6g} {value['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
