"""PANE benchmark: both pipelines on seeded attributed graphs, with output gates.

Run from the repository root::

    python3 panebench/run.py --workload cora-attr --seed 1 --seconds 30 --trace 0

Every run builds its input from ``--seed`` (the graph and its Section 5.2
attribute hold-out split), starts a ``local[4]`` SparkSession, times one
``pane_spark`` call and as many ``pane_numpy`` calls as fit in
``--seconds`` (at least one), scores both embeddings on the held-out
node-attribute pairs and checks them against each other. The last line
of standard output is one JSON object ``{correct, attempted, failed,
metrics}``; the line before it is the full record with provenance.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: it runs ``pane_spark`` with the Spark event
log on and every driver-side phase of ``repro.core.pane`` wrapped and
tagged with ``setJobGroup``, so each phase's jobs, stages, tasks,
shuffle bytes and task times can be read back from the log. It also
times ``pane_numpy``'s three phases and calls the CCD and RandSVD
kernels directly.

Each untraced run records its ``pane_spark`` wall time under
``.panebench/untraced/`` in the checkout. A traced run reports its own
wall time minus the median of those records for the workload as
``trace_overhead_s``; with no record yet, it first makes an untraced run
of the same input as a child process.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout must stay as git would commit it

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".panebench"  # per-run work dirs, and untraced wall times

# Fixed settings of every workload (recorded in every result).
MASTER = "local[4]"
SPARK_CORES = 4
NB = 4
SHUFFLE_PARTITIONS = 4  # sets PAPMI's task count; pinned to nb = cores
DRIVER_MEMORY = "2g"
K, ALPHA, EPS = 128, 0.5, 0.015
TEST_FRAC = 0.2

# Output gates. Spark's split-merge GreedyInit (nb blocks) is not the
# single-thread GreedyInit, so the two pipelines agree on quality only up
# to a tolerance; Lemma 4.1 makes PAPMI equal to APMI up to rounding.
AUC_TOL = 0.01
OBJ_REL_TOL = 0.01
AFFINITY_TOL = 1e-9

# Inputs per workload: ``load`` takes the repository's named stand-in;
# ``graph`` calls the stand-in generator with the given shape.
WORKLOADS = {
    # The cora stand-in (n=2708, m~5.4K, d=200): Spark time is almost
    # all fixed per-job cost, so scheduling changes show and kernel
    # changes do not.
    "cora-attr": {"load": "cora"},
    # The tweibo stand-in's shape (m/n~18.7, d=200, ~6 attributes per
    # node) at 1/8 of its nodes and edges, so one run fits the time a
    # run may take: edge messages dominate PAPMI's shuffle, and the
    # hold-out leaves nodes with no attributes and no in-edges, which
    # pane_spark drops today.
    "tweibo-attr": {
        "name": "tweibo",
        "graph": dict(n=2000, d=200, m=37500, n_labels=8, avg_attrs=6, directed=True),
    },
}

# Layers are named ``module.function``; the function is looked up by that
# name in repro.core.pane (phases) or in the named module (kernels).
SPARK_PHASES = (
    "pane.attr_states",
    "affinity.papmi_from_states",
    "greedy_init.sm_greedy_init_spark",
    "ccd.psvdccd_spark",
    "ccd.collect_embeddings",
)
UNTAGGED = "pane.untagged"  # Spark jobs of pane_spark outside every phase
NUMPY_PHASES = ("affinity.apmi_numpy", "greedy_init.greedy_init_numpy", "ccd.svdccd_numpy")
KERNELS = {
    "ccd.x_phase": "repro.core.ccd",
    "ccd.y_phase_from_moments": "repro.core.ccd",
    "randsvd.rand_svd": "repro.linalg.randsvd",
}
KERNEL_SECONDS = 1.0  # time budget per kernel; each runs at least 3 times
# Per-phase counters reported from the event log. Shuffle fetch wait is
# parsed but not reported: with one local executor no block is fetched
# remotely, so it reads 0 on every run.
PHASE_COUNTERS = {
    "jobs": "count", "stages": "count", "tasks": "count", "failed_tasks": "count",
    "shuffle_write_bytes": "bytes", "shuffle_read_bytes": "bytes", "spill_bytes": "bytes",
    "task_run_s": "s", "python_run_s": "s",
    "python_bytes_sent": "bytes", "python_bytes_returned": "bytes",
}
# Times that are 0 by construction today, also left out: collect_embeddings
# runs no Python UDF, and pane_spark runs no job outside its phases (a
# renamed phase would show up in the untagged job, stage and task counts).
UNREPORTED = {
    "ccd.collect_embeddings.python_run_s",
    "pane.untagged.task_run_s",
    "pane.untagged.python_run_s",
    "pane.untagged.core_util",
}


def fail(msg: str) -> None:
    print(f"panebench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_repro() -> None:
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "repro" / "core" / "pane.py").is_file():
        fail(f"no PANE sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np
    import pyspark
    from repro.core.affinity import num_iterations

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_cfg = blas.get("openblas configuration", "").split()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "max_threads": next((t[12:] for t in blas_cfg if t.startswith("MAX_THREADS=")), None),
        },
        "spark": {
            "version": pyspark.__version__,
            "master": MASTER,
            "shuffle_partitions": SHUFFLE_PARTITIONS,
            "driver_memory": DRIVER_MEMORY,
        },
        "pane": {"k": K, "alpha": ALPHA, "eps": EPS, "t": num_iterations(EPS, ALPHA), "nb": NB},
    }


def make_input(workload: str, seed: int):
    """The Section 5.2 training graph and its held-out pairs for one seed."""
    from repro import datasets
    from repro.eval.splits import attribute_split

    spec = WORKLOADS[workload]
    if "load" in spec:
        g = datasets.load(spec["load"], seed=seed)
    else:
        g = datasets.attributed_graph(name=spec["name"], seed=seed, **spec["graph"])
    split = attribute_split(g, test_frac=TEST_FRAC, seed=seed)
    inp = (g.n, g.d, g.src, g.dst, split.train_node, split.train_attr, split.train_weight)
    description = {
        "dataset": g.name, "n": g.n, "m": g.m, "d": g.d,
        "nnz_R": len(split.train_node), "nnz_R_heldout": int(split.test_label.sum()),
        "dataset_seed": seed, "split_seed": seed,
    }
    return g, split, inp, description


# ---------------------------------------------------------------- spark


def start_spark(work: Path, event_dir: Path | None = None):
    """A ``local[4]`` session whose scratch files all stay under ``work``."""
    for sub in ("tmp", "local"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options -Djava.io.tmpdir={work / 'tmp'} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("panebench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(work / "local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
    )
    if event_dir is not None:
        event_dir.mkdir(parents=True, exist_ok=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", event_dir.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit.

    The JVM that PySpark launches exits when its stdin closes; PySpark
    keeps the launched process on its (private) gateway object.
    """
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    gateway.shutdown()
    gateway.proc.stdin.close()
    gateway.proc.wait(timeout=60)


def warm_python_workers(spark) -> None:
    """One Arrow UDF job, so the timed call does not start the worker daemon."""
    spark.range(SPARK_CORES * 4, numPartitions=SPARK_CORES).mapInPandas(
        lambda it: it, "id long"
    ).count()


# -------------------------------------------------------------- metrics


def quality(emb, f, b, split) -> tuple[float, float]:
    """``(attr_auc, obj_rel)``: Table 4 AUC, and Eq. (4) over ``‖F′‖²+‖B′‖²``."""
    import numpy as np
    from repro.core.ccd import objective
    from repro.eval.metrics import roc_auc

    auc = roc_auc(split.test_label, emb.attr_scores(split.test_node, split.test_attr))
    obj = objective(f, b, emb.xf, emb.xb, emb.y) / (np.sum(f * f) + np.sum(b * b))
    return auc, obj


def check_outputs(emb_s, emb_n, f, b, g, split) -> tuple[dict, dict, int]:
    """Output gates on both embeddings, their quality metrics and Spark's dropped nodes.

    A node NumPy embeds but Spark leaves all-zero is counted, not gated:
    that is a known defect the benchmark measures.
    """
    import numpy as np

    gates, scores = {}, {}
    k2 = K // 2
    for tag, emb in (("spark", emb_s), ("numpy", emb_n)):
        shapes = (emb.xf.shape, emb.xb.shape, emb.y.shape)
        gates[f"{tag}_shapes"] = shapes == ((g.n, k2), (g.n, k2), (g.d, k2))
        gates[f"{tag}_finite"] = all(bool(np.isfinite(a).all()) for a in (emb.xf, emb.xb, emb.y))
        scores[tag] = quality(emb, f, b, split)
    (s_auc, s_obj), (n_auc, n_obj) = scores["spark"], scores["numpy"]
    gates["auc_spark_vs_numpy"] = bool(abs(s_auc - n_auc) <= AUC_TOL)
    gates["obj_rel_spark_vs_numpy"] = bool(abs(s_obj - n_obj) <= OBJ_REL_TOL * n_obj)

    def embedded(emb):
        return (np.abs(emb.xf).sum(axis=1) + np.abs(emb.xb).sum(axis=1)) > 0

    dropped = int((embedded(emb_n) & ~embedded(emb_s)).sum())
    metrics = {
        "spark_attr_auc": (s_auc, "1"),
        "numpy_attr_auc": (n_auc, "1"),
        "spark_obj_rel": (s_obj, "1"),
        "numpy_obj_rel": (n_obj, "1"),
        "spark_node_kept_frac": (1.0 - dropped / g.n, "1"),
    }
    return gates, metrics, dropped


@contextmanager
def patched(module, wrappers: dict):
    """Replace module globals by ``make(original)`` for a block; yield the absent names."""
    saved, absent = {}, []
    for name, make in wrappers.items():
        if hasattr(module, name):
            saved[name] = getattr(module, name)
            setattr(module, name, make(saved[name]))
        else:
            absent.append(name)
    try:
        yield absent
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def wrap_phases(layers, walls: dict, outputs: dict, sc=None):
    """Time each phase call of ``repro.core.pane`` and keep its output.

    With ``sc``, the phase's Spark jobs are tagged with the layer name and
    jobs between phases with ``UNTAGGED``. Only driver-side names are
    wrapped: kernels that run inside UDF closures would be shipped to the
    workers wrapped.
    """
    from repro.core import pane

    def make_for(layer):
        def make(fn):
            def wrapper(*a, **kw):
                if sc is not None:
                    sc.setJobGroup(layer, layer)
                t0 = time.perf_counter()
                try:
                    outputs[layer] = fn(*a, **kw)
                finally:
                    walls[layer] = walls.get(layer, 0.0) + time.perf_counter() - t0
                    if sc is not None:
                        sc.setJobGroup(UNTAGGED, UNTAGGED)
                return outputs[layer]

            return wrapper

        return make

    return patched(pane, {layer.split(".")[-1]: make_for(layer) for layer in layers})


def time_kernels(f, b, init) -> tuple[dict, list]:
    """Median wall time per call of each named kernel, called directly.

    Inputs are the workload's own ``F′, B′`` and GreedyInit output
    ``(Xf, Xb, Y)``; ``y_phase_from_moments`` gets the moments after one
    X-phase. A kernel missing from its module is reported absent.
    """
    from repro.core.affinity import num_iterations

    fns = {
        layer: getattr(importlib.import_module(mod), layer.split(".")[-1], None)
        for layer, mod in KERNELS.items()
    }
    xf0, xb0, y0 = init
    x_phase, y_phase = fns["ccd.x_phase"], fns["ccd.y_phase_from_moments"]
    rand_svd = fns["randsvd.rand_svd"]
    xf1, xb1 = x_phase(f, b, xf0, xb0, y0) if x_phase else (xf0, xb0)
    g = xf1.T @ xf1 + xb1.T @ xb1
    c = xf1.T @ f + xb1.T @ b
    t = num_iterations(EPS, ALPHA)
    calls = {
        "ccd.x_phase": lambda: x_phase(f, b, xf0, xb0, y0),
        "ccd.y_phase_from_moments": lambda: y_phase(y0, g, c),
        "randsvd.rand_svd": lambda: rand_svd(f, K // 2, t, 0),
    }
    walls = {}
    for layer, call in calls.items():
        if fns[layer] is None:
            continue
        samples = []
        stop = time.perf_counter() + KERNEL_SECONDS
        while len(samples) < 3 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            call()
            samples.append(time.perf_counter() - t0)
        walls[layer] = statistics.median(samples)
    return walls, [layer for layer, fn in fns.items() if fn is None]


# ---------------------------------------------------------------- modes


def run_untraced(args, work: Path, record: dict) -> tuple[dict, dict, int]:
    from repro.core.pane import pane_numpy, pane_spark

    t0 = time.perf_counter()
    spark = start_spark(work)
    t_session = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        g, split, inp, record["input"] = make_input(args.workload, args.seed)
        t_input = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_python_workers(spark)
        t_warm = time.perf_counter() - t0

        deadline = time.perf_counter() + args.seconds
        t0 = time.perf_counter()
        emb_s = pane_spark(spark, *inp, k=K, alpha=ALPHA, eps=EPS, nb=NB, seed=args.seed)
        spark_wall = time.perf_counter() - t0
        # pane_numpy's own apmi_numpy output is the reference (F′, B′);
        # keeping it costs one dict store per call.
        numpy_walls, fb = [], {}
        with wrap_phases(["affinity.apmi_numpy"], {}, fb):
            while not numpy_walls or time.perf_counter() + numpy_walls[-1] <= deadline:
                t0 = time.perf_counter()
                emb_n = pane_numpy(*inp, k=K, alpha=ALPHA, eps=EPS, seed=args.seed)
                numpy_walls.append(time.perf_counter() - t0)
    finally:
        stop_spark(spark)

    gates, quality_metrics, dropped = check_outputs(
        emb_s, emb_n, *fb["affinity.apmi_numpy"], g, split
    )
    if all(gates.values()):  # the reference for traced runs' trace_overhead_s
        untraced_dir = SCRATCH / "untraced"
        untraced_dir.mkdir(exist_ok=True)
        (untraced_dir / f"{work.name}.json").write_text(json.dumps({"spark_wall_s": spark_wall}))
    record.update(
        gates=gates,
        spark_nodes_dropped=dropped,
        spark_node_drop_frac=dropped / g.n,
        numpy_walls_s=numpy_walls,
        setup_parts_s={"session": t_session, "input": t_input, "worker_warmup": t_warm},
    )
    metrics = {
        "setup_s": (t_session + t_input + t_warm, "s"),
        "spark_wall_s": (spark_wall, "s"),
        "numpy_wall_s": (statistics.median(numpy_walls), "s"),
        **quality_metrics,
        "driver_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return gates, metrics, 1 + len(numpy_walls)


def untraced_spark_wall(args) -> tuple[float, int]:
    """Median ``spark_wall_s`` of this checkout's untraced runs of the workload.

    With none recorded, one untraced run of the same input is made first,
    in a fresh process. Returns the median and the number of runs.
    """
    def recorded() -> list[float]:
        paths = (SCRATCH / "untraced").glob(f"{args.workload}-*.json")
        return [json.loads(p.read_text())["spark_wall_s"] for p in paths]

    if walls := recorded():
        return statistics.median(walls), len(walls)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        fail(f"untraced child run exited with {out.returncode}")
    if not json.loads(out.stdout.splitlines()[-1])["correct"]:
        fail("untraced child run failed its output gates")
    walls = recorded()
    return statistics.median(walls), len(walls)


def run_traced(args, work: Path, record: dict) -> tuple[dict, dict, int]:
    import numpy as np
    from repro.core import pane
    from repro.core.affinity import affinities_spark_to_numpy, apmi_numpy, num_iterations

    sys.path.insert(0, str(BENCH_DIR))
    from eventlog import find_event_log, parse_event_log

    untraced_wall, untraced_runs = untraced_spark_wall(args)

    event_dir = work / "events"
    spark = start_spark(work, event_dir)
    try:
        sc = spark.sparkContext
        g, split, inp, record["input"] = make_input(args.workload, args.seed)
        sc.setJobGroup("bench.warmup", "bench.warmup")
        warm_python_workers(spark)

        walls, outputs = {}, {}
        with wrap_phases(SPARK_PHASES, walls, outputs, sc) as absent_spark:
            sc.setJobGroup(UNTAGGED, UNTAGGED)
            t0 = time.perf_counter()
            emb_s = pane.pane_spark(spark, *inp, k=K, alpha=ALPHA, eps=EPS, nb=NB, seed=args.seed)
            traced_wall = time.perf_counter() - t0
        with wrap_phases(NUMPY_PHASES, walls, outputs) as absent_numpy:
            emb_n = pane.pane_numpy(*inp, k=K, alpha=ALPHA, eps=EPS, seed=args.seed)

        f, b = apmi_numpy(*inp, ALPHA, num_iterations(EPS, ALPHA))
        gates, _, dropped = check_outputs(emb_s, emb_n, f, b, g, split)
        if "affinity.papmi_from_states" in outputs:  # Lemma 4.1
            sc.setJobGroup("bench.gates", "bench.gates")
            fs, bs = affinities_spark_to_numpy(*outputs["affinity.papmi_from_states"], g.n, g.d)
            err = max(float(np.max(np.abs(fs - f))), float(np.max(np.abs(bs - b))))
            gates["papmi_equals_apmi"] = bool(err <= AFFINITY_TOL)
            record["papmi_max_abs_err"] = err
    finally:
        stop_spark(spark)

    kernel_walls, absent_kernels = {}, list(KERNELS)
    if "greedy_init.greedy_init_numpy" in outputs:
        kernel_walls, absent_kernels = time_kernels(f, b, outputs["greedy_init.greedy_init_numpy"])

    counters = {k: asdict(v) for k, v in parse_event_log(find_event_log(event_dir)).items()}
    walls[UNTAGGED] = traced_wall - sum(walls.get(layer, 0.0) for layer in SPARK_PHASES)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in SPARK_PHASES + (UNTAGGED,):
        wall, c = walls.get(layer, 0.0), counters.get(layer, {})
        metrics[f"{layer}.wall_s"] = (wall, "s")
        for name, unit in PHASE_COUNTERS.items():
            metrics[f"{layer}.{name}"] = (c.get(name, 0), unit)
        core_util = c.get("task_run_s", 0.0) / (wall * SPARK_CORES) if wall > 0 else 0.0
        metrics[f"{layer}.core_util"] = (core_util, "1")
    for name in UNREPORTED:
        del metrics[name]
    for layer in NUMPY_PHASES:
        metrics[f"{layer}.wall_s"] = (walls.get(layer, 0.0), "s")
    for layer in KERNELS:
        metrics[f"{layer}.wall_s"] = (kernel_walls.get(layer, 0.0), "s")
    metrics["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    record.update(
        gates=gates,
        spark_nodes_dropped=dropped,
        absent_layers=[
            layer
            for layer in SPARK_PHASES + NUMPY_PHASES
            if layer.split(".")[-1] in absent_spark + absent_numpy
        ] + absent_kernels,
        spark_wall_traced_s=traced_wall,
        spark_wall_untraced_median_s=untraced_wall,
        untraced_runs=untraced_runs,
        other_job_groups={
            k: v for k, v in counters.items() if k not in SPARK_PHASES + (UNTAGGED,)
        },
    )
    return gates, metrics, 2


def main() -> None:
    args = parse_args()
    import_repro()
    record = provenance(args)
    work = SCRATCH / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_untraced
        gates, metrics, attempted = run(args, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_gates = [name for name, ok in gates.items() if not ok]
    if failed_gates:
        print(f"panebench: output gates failed: {failed_gates}", file=sys.stderr)
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed_gates,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
