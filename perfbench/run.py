"""rigiddock benchmark: one workload per process, checked outputs, one JSON result line.

Run from a checkout of the repository (the package is imported from its
``src`` directory, never from an installed copy)::

    python3 perfbench/run.py --workload dock-large --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends the first
half of the measured time untraced and the second half with span wrappers
installed around the package's public calls, and prints the per-layer
metrics. The last line of standard output is the result object; the line
before it carries the run record (environment, set-up rounds, tail latency,
determinism fingerprint). ``--tiny`` shrinks every input for the smoke test.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# Pinned before numpy is imported, so every run uses the same BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import hashlib
import json
import logging
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
CRMSD_TOL = 1e-8  # A; in-memory pose invariance holds to ~1e-11
# Proteins come from fixed generator streams [PROTEIN_STREAM, j], so every
# seed does the same set-up and per-request work; the seed draws the input
# poses, the request perturbations and the training order.
PROTEIN_STREAM = 211107786
REQUEST_SEEDS = 1_000_000  # dock request i of seed s perturbs with seed s * REQUEST_SEEDS + i
# calibrate() on an unloaded 2-core x86_64 machine (Python 3.11, numpy 2.4).
# Timings are rescaled to this machine speed; see calibrate().
REFERENCE_CALIBRATION_S = 0.008


def calibrate() -> float:
    """Seconds a fixed mix of interpreter and small-array numpy work takes now.

    Shared machines flip between fast and slow phases lasting seconds to
    minutes, 15-80% apart. The benchmark times this fixed work before and
    after every set-up round and request and rescales each one by the
    slowdown around it (``at_reference``), so the gated timings compare
    the program across runs rather than the machine's load at the time.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    a = np.full((30, 30), 0.5)
    for _ in range(300):
        a = np.tanh(a @ a.T * 0.01)
    return time.perf_counter() - t0


def load_package():
    """Import rigiddock from this checkout's ``src``; exit 1 when it is absent."""
    src = ROOT / "src"
    if not (src / "rigiddock" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rigiddock sources under {src}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import rigiddock  # loads every submodule the benchmark touches

    if Path(rigiddock.__file__).resolve().parent != (src / "rigiddock").resolve():
        sys.exit(f"perfbench: imported rigiddock from {rigiddock.__file__}, not {src}")
    return rigiddock


def fingerprint(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class DockEntry:
    pair_id: str
    ligand_pdb: str
    receptor_pdb: str
    truth: object  # rigiddock.docking.RigidTransform


def posed(rd, pair_id: str, bound_ligand, receptor, rng):
    """A docking pair whose ligand input is ``bound_ligand`` moved by a random rigid motion."""
    move = rd.training.random_se3(rng)
    return rd.synthetic.DockingPair(pair_id, bound_ligand.transformed(move.R, move.t),
                                    receptor, move.inverse())


def bound_complex(pair):
    """(bound ligand, receptor) of a generated pair, both as ResidueSets."""
    return pair.ligand.transformed(pair.truth.R, pair.truth.t), pair.receptor


def inputs_digest(pairs) -> str:
    return fingerprint(a for p in pairs for a in (p.ligand.ca, p.receptor.ca, p.truth.R))


def check_round(workload, r: int, digest: str) -> None:
    """Every set-up round must build exactly the inputs the first one did."""
    if workload.digest not in (None, digest):
        raise RuntimeError(f"set-up round {r} built different inputs from the same seed")
    workload.digest = digest


class DockLarge:
    """Per-pair work of ``rigiddock eval`` on 1000-residue pairs.

    Set-up generates one 1000 x 1000 complex from a fixed stream and
    poses it twice from the seed, each protein taking a turn as the
    ligand; the two pairs are stored as PDB text. A request parses both PDB texts of the next pair
    and calls ``training.evaluate`` on it from a fresh random pose.
    """

    rounds = 5
    items_per_request = 1
    # A stream whose 1000-residue pair generates in three attempts (about
    # 2.5 s on the 2-core reference machine); of the first six streams the
    # others need 4 to 43 attempts (up to 32 s), which five set-up rounds
    # per run cannot afford.
    stream = 4

    def __init__(self, rd, seed: int, tiny: bool, tmp: str):
        self.rd = rd
        self.seed = seed
        self.residues = 60 if tiny else 1000
        self.crmsd: dict[str, float] = {}
        self.digest = None

    def build_round(self, r: int) -> None:
        rd = self.rd
        rng = np.random.default_rng([PROTEIN_STREAM, self.stream])
        ligand, receptor = bound_complex(
            rd.synthetic.generate_pair(rng, "large", self.residues, self.residues))
        rng = np.random.default_rng(self.seed)
        pairs = [posed(rd, "large-a", ligand, receptor, rng),
                 posed(rd, "large-b", receptor, ligand, rng)]
        check_round(self, r, inputs_digest(pairs))
        fmt = rd.pdbio.format_ca_pdb
        self.pool = [DockEntry(p.pair_id, fmt(p.ligand, full_backbone=True),
                               fmt(p.receptor, full_backbone=True), p.truth) for p in pairs]

    def start(self, model) -> None:
        self.model = model

    def request(self, i: int) -> tuple[float, int, int, int]:
        """Returns (seconds, items done, items attempted, items failed)."""
        rd = self.rd
        entry = self.pool[i % len(self.pool)]
        t0 = time.perf_counter()
        pair = rd.synthetic.DockingPair(entry.pair_id, rd.pdbio.parse_pdb(entry.ligand_pdb),
                                        rd.pdbio.parse_pdb(entry.receptor_pdb), entry.truth)
        row = rd.training.evaluate(self.model, [pair], seed=REQUEST_SEEDS * self.seed + i).rows[0]
        elapsed = time.perf_counter() - t0
        reference = self.crmsd.setdefault(entry.pair_id, row.crmsd)
        ok = (row.status == "ok" and math.isfinite(row.crmsd) and math.isfinite(row.irmsd)
              and abs(row.crmsd - reference) <= CRMSD_TOL)
        return elapsed, 1, 1, 0 if ok else 1

    def finish(self) -> tuple[str, int]:
        """Fingerprint of each pair's transform from its parsed input pose.

        The unperturbed prediction must score the same complex RMSD as the
        perturbed requests did. Returns (fingerprint, failed checks).
        """
        rd = self.rd
        k = self.model.config.neighbors
        parts, failed = [], 0
        for entry in self.pool:
            lig = rd.pdbio.parse_pdb(entry.ligand_pdb)
            rec = rd.pdbio.parse_pdb(entry.receptor_pdb)
            tr = rd.docking.predict_dock(self.model, rd.graphs.build_graph(lig, k),
                                         rd.graphs.build_graph(rec, k))
            parts += [tr.R, tr.t]
            crmsd = rd.metrics.complex_rmsd(tr.apply(lig.ca), entry.truth.apply(lig.ca), rec.ca)
            reference = self.crmsd.get(entry.pair_id, crmsd)
            failed += abs(crmsd - reference) > CRMSD_TOL
        return fingerprint(parts), failed


class _SkipCounter(logging.Handler):
    """Counts the training steps ``train`` reports as skipped."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record) -> None:
        if "step skipped" in record.getMessage():
            self.count += 1


class TrainToy:
    """One ``training.train`` call per request on CLI-default toy pairs.

    Each set-up round builds the whole pair set: the complexes from the
    fixed protein streams, the input poses from the seed; rounds must
    agree exactly. The last pair is the validation set. Every request
    starts from the same checkpointed initial weights, so every request
    does identical work and must end on identical weights.
    """

    rounds = 7
    pairs = 16
    epochs = 1

    def __init__(self, rd, seed: int, tiny: bool, tmp: str):
        self.rd = rd
        self.seed = seed
        if tiny:
            self.pairs = 2
        self.checkpoint = os.path.join(tmp, "train.ckpt")
        self.skips = _SkipCounter()
        self.digest = None
        self.final = None

    def make_complex(self, rng, pair_id: str):
        """(bound ligand, receptor) of one complex."""
        return bound_complex(self.rd.synthetic.generate_pair(rng, pair_id))

    def build_round(self, r: int) -> None:
        rng = np.random.default_rng(self.seed)
        pairs = []
        for j in range(self.pairs):
            pair_id = f"pair{j}"
            bound, receptor = self.make_complex(np.random.default_rng([PROTEIN_STREAM, j]),
                                                pair_id)
            pairs.append(posed(self.rd, pair_id, bound, receptor, rng))
        check_round(self, r, inputs_digest(pairs))
        self.train_pairs, self.val_pairs = pairs[:-1], pairs[-1:]

    def start(self, model) -> None:
        self.model_config = model.config
        self.initial = model.state_arrays()
        self.items_per_request = 2 * len(self.train_pairs) * self.epochs
        logging.getLogger("rigiddock.training").addHandler(self.skips)

    def request(self, i: int) -> tuple[float, int, int, int]:
        rd = self.rd
        model = rd.model.DockingModel(self.model_config)
        model.load_state_arrays(self.initial)
        config = rd.training.TrainConfig(max_epochs=self.epochs, patience=self.epochs,
                                         seed=self.seed)
        attempted = self.items_per_request
        skipped_before = self.skips.count
        t0 = time.perf_counter()
        result = rd.training.train(model, self.train_pairs, self.val_pairs, config,
                                   checkpoint_path=self.checkpoint)
        elapsed = time.perf_counter() - t0
        skipped = self.skips.count - skipped_before
        state = model.state_arrays()
        final = fingerprint(state[name] for name in sorted(state))
        self.final = self.final or final
        ok = (result.steps == attempted - skipped and result.epochs_run == self.epochs
              and not result.skipped_pairs and math.isfinite(result.best_val)
              and all(np.all(np.isfinite(a)) for a in state.values()) and final == self.final)
        return elapsed, result.steps, attempted, skipped if ok else attempted

    def finish(self) -> tuple[str, int]:
        logging.getLogger("rigiddock.training").removeHandler(self.skips)
        return self.final, 0


class TrainInterface(TrainToy):
    """``TrainToy`` on dense-interface pairs: one ~80-residue protein cut in two.

    The cut is a random plane through the centroid, redrawn until the bound
    halves have ``contacts`` contact pairs (the OT problem's S).
    """

    pairs = 6
    residues = 80
    contacts = (80, 90)

    def make_complex(self, rng, pair_id: str):
        rd = self.rd
        lo, hi = self.contacts
        for _ in range(20):
            protein = rd.synthetic.generate_pair(rng, pair_id, self.residues, self.residues).receptor
            centered = protein.ca - protein.ca.mean(axis=1, keepdims=True)
            for _ in range(200):
                side = rng.standard_normal(3) @ centered > 0
                lig, rec = _subset(protein, side), _subset(protein, ~side)
                if lo <= rd.losses.pocket_points(lig.ca, rec.ca).shape[1] <= hi:
                    return lig, rec
        raise RuntimeError(f"{pair_id}: no cut with {lo}-{hi} contacts")


def _subset(rs, mask):
    """The residues of ``rs`` where ``mask`` is true, as a new ResidueSet."""
    keep = [i for i, m in enumerate(mask) if m]
    return type(rs)(
        ca=rs.ca[:, keep], n_atom=rs.n_atom[:, keep], c_atom=rs.c_atom[:, keep],
        types=rs.types[keep], names=[rs.names[i] for i in keep],
        chains=[rs.chains[i] for i in keep], seq_ids=[rs.seq_ids[i] for i in keep],
        icodes=[rs.icodes[i] for i in keep])


WORKLOADS = {"dock-large": DockLarge, "train-toy": TrainToy, "train-interface": TrainInterface}


def model_round_trip(rd, seed: int, path: str):
    """Default-config random-init model, saved and loaded back as ``rigiddock eval`` would."""
    model = rd.model.DockingModel(rd.model.ModelConfig(), seed=seed)
    rd.checkpoint.save_named_tensors(path, model.state_arrays(),
                                     extra={"config": model.config.to_dict()})
    tensors, extra = rd.checkpoint.load_named_tensors(path)
    loaded = rd.model.DockingModel(rd.model.ModelConfig.from_dict(extra["config"]))
    loaded.load_state_arrays(tensors)
    return loaded


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to the reference machine speed.

    ``before`` and ``after`` are the calibrations that bracket the timed
    interval; their mean over REFERENCE_CALIBRATION_S is how much slower
    than the reference the machine ran at that moment.
    """
    return seconds * 2 * REFERENCE_CALIBRATION_S / (before + after)


class SetUp:
    """Set-up rounds: the workload's inputs, then the model's checkpoint round trip.

    Every round rebuilds the same inputs and model from the seed (the
    workload checks that the inputs match). A dock-large round lasts
    seconds, so each round is bracketed by the mean of CALIBRATIONS
    calibrations on each side, and kept as (seconds, calibration before,
    calibration after).
    """

    CALIBRATIONS = 3

    def __init__(self, rd, workload, seed: int, tmp: str, tracer=None):
        self.rd, self.workload, self.seed, self.tmp, self.tracer = rd, workload, seed, tmp, tracer
        self.rounds: list[tuple[float, float, float]] = []

    def __call__(self):
        r = len(self.rounds)
        if self.tracer is not None:
            self.tracer.op = f"setup{r}"
        before = statistics.fmean(calibrate() for _ in range(self.CALIBRATIONS))
        t0 = time.perf_counter()
        self.workload.build_round(r)
        model = model_round_trip(self.rd, self.seed, os.path.join(self.tmp, f"init{r}.ckpt"))
        elapsed = time.perf_counter() - t0
        after = statistics.fmean(calibrate() for _ in range(self.CALIBRATIONS))
        self.rounds.append((elapsed, before, after))
        return model


def measure(workload, seconds: float, first: int, tracer=None, set_up=None,
            rounds: int = 0) -> dict:
    """Closed loop, one client: requests back to back for ``seconds`` of request time.

    A calibration runs before the first request and after each request
    and set-up round; a request's time is rescaled by the two around it.
    When ``set_up`` is given, ``rounds`` more set-up rounds run between
    requests, spread evenly over the run, so that set-up time samples the
    machine's speed over the whole run as the requests do; their time is
    not request time.
    """
    latencies, reference, done, attempted, failed = [], [], 0, 0, 0
    calibrations = [calibrate()]
    i = first
    start = time.perf_counter()
    marks = [start + seconds * (k + 0.5) / rounds for k in range(rounds)]
    deadline = start + seconds
    while not latencies or time.perf_counter() < deadline:
        if marks and time.perf_counter() >= marks[0]:
            t0 = time.perf_counter()
            set_up()
            calibrations.append(calibrate())
            pause = time.perf_counter() - t0
            marks = [m + pause for m in marks[1:]]
            deadline += pause
        if tracer is not None:
            tracer.op = i
        try:
            elapsed, n_done, n_attempted, n_failed = workload.request(i)
        except Exception:
            traceback.print_exc()
            n = workload.items_per_request
            elapsed, n_done, n_attempted, n_failed = math.nan, 0, n, n
        calibrations.append(calibrate())
        if math.isfinite(elapsed):
            reference.append(at_reference(elapsed, calibrations[-2], calibrations[-1]))
        latencies.append(elapsed)
        done += n_done
        attempted += n_attempted
        failed += n_failed
        i += 1
    for _ in marks:  # rounds the last request ran past
        set_up()
    return {"latencies": latencies, "reference": reference, "done": done,
            "attempted": attempted, "failed": failed, "calibrations": calibrations, "next": i}


def tail(latencies: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it, never below p50.

    Below 30 samples that is p50, and ``beyond`` says how many samples lie
    past it.
    """
    n = len(latencies)
    percentile = max(50, math.floor(100 * (n - 10) / n))
    rank = math.ceil(percentile * n / 100)
    return {"percentile": percentile, "ms": 1e3 * sorted(latencies)[rank - 1],
            "samples": n, "beyond": n - rank}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads": blas_threads()}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    rd = load_package()
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer(rd) if trace else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = WORKLOADS[name](rd, seed, tiny, tmp)
        rounds = 2 if tiny else workload.rounds
        set_up = SetUp(rd, workload, seed, tmp, tracer)
        if tracer is None:
            workload.start(set_up())
            phases = [measure(workload, seconds, 0, set_up=set_up, rounds=rounds - 1)]
        else:
            # Set-up is traced too; all its rounds run before the requests.
            tracer.install()
            t0 = time.perf_counter()
            models = [set_up() for _ in range(rounds)]
            workload.start(models[0])
            traced_s = time.perf_counter() - t0
            tracer.uninstall()
            untraced = measure(workload, seconds / 2, 0)
            tracer.install()
            t1 = time.perf_counter()
            traced = measure(workload, seconds / 2, untraced["next"], tracer)
            traced_s += time.perf_counter() - t1
            tracer.uninstall()
            phases = [untraced, traced]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest, finish_failed = workload.finish()

    latencies = [x for p in phases for x in p["latencies"] if math.isfinite(x)]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases) + finish_failed
    calibrations = ([c for r in set_up.rounds for c in r[1:]]
                    + [c for p in phases for c in p["calibrations"]])
    p = phases[0]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "environment": environment(),
        "setup_rounds_s": [r[0] for r in set_up.rounds],
        "slowdown": statistics.fmean(calibrations) / REFERENCE_CALIBRATION_S,
        "wall_items_per_s": p["done"] / sum(x for x in p["latencies"] if math.isfinite(x)),
        "requests": len(latencies), "p50_ms": 1e3 * statistics.median(latencies),
        "tail": tail(latencies), "fingerprint": digest,
        "setup_calibrations_ms": [[1e3 * c for c in r[1:]] for r in set_up.rounds],
        "calibrations_ms": [1e3 * c for c in calibrations],
        "latencies_ms": [1e3 * x for x in latencies],
        "reference_ms": [1e3 * x for p in phases for x in p["reference"]],
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(at_reference(*r) for r in set_up.rounds), "s"),
            "items_per_s": (p["done"] / sum(p["reference"]), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_layer = tracer.summary(traced_s)
        units = {"calls": "count", "self_s": "s", "p50_ms": "ms"}
        metrics = {key: (value, units.get(key.rsplit(".", 1)[1], "count"))
                   for key, value in per_layer.items()}
        untraced, traced = phases
        metrics["trace.wall_s"] = (traced_s, "s")
        # Rescaled request times, so the machine's speed phases cancel.
        metrics["trace.overhead_ms"] = (1e3 * (statistics.median(traced["reference"])
                                               - statistics.median(untraced["reference"])), "ms")
        metrics["failed_ratio"] = (failed / attempted, "ratio")
        spans_path = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    record["result"] = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = record.pop("result")
    for key in ("latencies_ms", "reference_ms", "calibrations_ms", "setup_calibrations_ms"):
        del record[key]
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
