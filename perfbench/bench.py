"""Workloads, timed pipelines, cold-CLI runs and metrics of the pgcodes benchmark.

One call of `run` is one workload in one process: a closed loop over seeded
codewords, one at a time, with `threads=1`, plus cold `python -m
pgcodes.cli analyze` subprocesses run one after another.  Every output is
checked outside the timed sections.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pgcodes import bounds, codes, ff, geometry, minimality

import checks
from tracing import Tracer

ORACLE_LIMIT = 5 ** 8      # p^m up to which every decided verdict meets the oracle
CLI_MIN_ROUNDS = 2         # so that every spec's reports are compared byte for byte
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200
SETUP_BUDGET_S = 0.3
PROBE_CALLS = 320          # distinct hyperplanes / points per geometry probe (> 256-entry cache)
STARTUP_REPEATS = 3
PHASE_PREFERENCE = ("loop", "warmup", "probe")   # where per-layer metrics take their spans
SEVEN = "seven-line"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    h: int
    round: tuple        # term count of each codeword in one round; SEVEN = the fixture
    cli_specs: tuple    # term counts of the specs given to the CLI
    cli_flags: tuple
    steps: tuple        # in-process pipeline after `combine`
    with_oracle: bool = False
    # Each phase measures `scale` x --seconds.  Short operations get a longer
    # window: on a shared 2-vCPU VM the speed swings over about 10 s, and a
    # 4 s median of 0.3 s CLI starts follows those swings.
    scale: float = 1.0


WORKLOADS = {w.name: w for w in (
    Workload("pg3-125-decompose", 3, 5, 3, (1, 2, 3, 4), (4,),
             ("--decompose", "--minimality"), ("decompose", "verdict")),
    Workload("pg3-64-spectrum", 3, 2, 6, (1, 2), (1,),
             ("--spectrum",), ("spectrum",)),
    Workload("pg2-125-analyze", 2, 5, 3, (SEVEN, 1, 2, 3, 4, 5, 6, 7, 8), (SEVEN, 8),
             ("--decompose", "--spectrum", "--minimality", "--oracle"),
             ("decompose", "spectrum", "verdict"), with_oracle=True, scale=1.5),
    Workload("pg2-2048-minimality", 2, 2, 11, (1, 6, 22, 44), (12,),
             ("--decompose", "--minimality"), ("decompose", "verdict")),
)}


class Run:
    """State of one workload run: space, seeded generator, tracer, tallies."""

    def __init__(self, wl: Workload, seed: int, trace: bool, out_dir: Path, src: Path):
        self.wl = wl
        self.rng = np.random.default_rng(seed)
        # probes draw from their own stream, so the loop's round count does
        # not change their inputs
        self.probe_rng = np.random.default_rng((seed, 1))
        self.tr = Tracer(trace)
        self.out_dir = out_dir
        self.src = src
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.space = None

    # -- bookkeeping -----------------------------------------------------------

    def check(self, fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except checks.CheckFailed as exc:
            self.errors.append(f"{fn.__name__}: {exc}")

    def operation_failed(self, what: str):
        self.failed += 1
        print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)

    # -- inputs ----------------------------------------------------------------

    def draw(self, m, space=None):
        """(label, drawn terms, seven-line expectations or None)."""
        space = space or self.space
        if m == SEVEN:
            terms, expected = seven_line_terms(space)
            return SEVEN, terms, expected
        idx = self.rng.choice(space.num_hyperplanes, size=m, replace=False)
        coefs = self.rng.integers(1, space.field.p, size=m)
        return f"m={m}", list(zip(idx.tolist(), coefs.tolist())), None

    # -- one codeword ----------------------------------------------------------

    def pipeline(self, terms, steps, with_oracle=False, space=None):
        """The library user's pipeline on one codeword; returns its outputs."""
        tr = self.tr
        space = space or self.space
        out = {}
        with tr.span("codeword"):
            cw, _ = tr.call("codes.combine", codes.combine, space, terms)
            out["cw"] = cw
            if "decompose" in steps:
                out["d"] = tr.call("minimality.decompose", minimality.decompose, cw)
                tr.last["terms"] = out["d"].m
            if "spectrum" in steps:
                sp = tr.call("bounds.secant_spectrum", bounds.secant_spectrum, cw, threads=1)
                if tr.enabled:
                    tr.last.update(weight=codes.weight(cw), n=space.n, q=space.q)
                out["spectrum"] = sp.histogram
                out["split"] = thin_thick(sp.histogram, bounds.context_for(cw))
            if "verdict" in steps:
                out["report"] = tr.call("minimality.verdict", minimality.verdict, cw,
                                        with_oracle=with_oracle, decomposition=out["d"])
        return out

    def stages(self, out):
        """Verdict's public stages called one by one (traced runs), and the
        oracle wherever p^m <= 5^8 (every run, for the agreement check)."""
        tr = self.tr
        d, rep = out["d"], out["report"]
        if tr.enabled:
            fix, _ = tr.call("minimality.refine_to_fixpoint", minimality.refine_to_fixpoint, d)
            holes = tr.call("minimality.exceptional_holes", minimality.exceptional_holes, d, fix)
            if rep.verdict == checks.NOT_MINIMAL:
                tr.call("minimality.build_witness", minimality.build_witness, d, fix, holes)
        if d.space.field.p ** d.m > ORACLE_LIMIT:
            return
        if rep.oracle is not None and not tr.enabled:
            out["oracle"] = rep.oracle
            return
        out["oracle"] = tr.call("minimality.oracle_minimal", minimality.oracle_minimal, d)
        tr.last["combinations"] = out["oracle"].combinations_checked

    def codeword(self, label, terms, seven, phase, steps=None, space=None):
        """Run, time and check one codeword; returns (pipeline seconds, outputs),
        or (None, None) when a call raised."""
        wl, tr = self.wl, self.tr
        steps = steps or wl.steps
        space = space or self.space
        tr.phase = phase
        tr.codeword = f"{phase}:{label}:{self.attempted}"
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.pipeline(terms, steps, wl.with_oracle and phase != "probe", space)
            elapsed = time.perf_counter() - t0
            if "verdict" in steps:
                self.stages(out)
        except Exception:
            self.operation_failed(f"{wl.name} {phase} codeword {label} terms={terms}")
            return None, None
        self.check_codeword(out, terms, seven, space)
        return elapsed, out

    def check_codeword(self, out, terms, seven, space):
        p = space.field.p
        cv = out["cw"].values
        if "d" in out:
            self.check(checks.check_decomposition, out["d"].terms, terms, p, cv,
                       space.theta(space.n - 1))
        if "spectrum" in out:
            ctx = bounds.context_for(out["cw"])
            self.check(checks.check_spectrum, out["spectrum"], space.n, space.q,
                       int(np.count_nonzero(cv)), bounds.delta(space.n, ctx),
                       bounds.weight_bound_W(1, ctx), bounds.thick_bound_U(1, ctx))
        rep = out.get("report")
        if rep is None:
            return
        duals = space.hyperplane_table[np.asarray(list(out["d"].terms), dtype=np.int64)]
        self.check(checks.check_holes, rep.exceptional_holes, cv, space.field,
                   space.point_table, duals)
        if rep.verdict == checks.NOT_MINIMAL:
            self.check(checks.check_witness, rep.witness.values, cv, p)
        if "oracle" in out:
            self.check(checks.check_oracle, rep.verdict, out["oracle"].minimal)
        if seven is not None:
            orc = out["oracle"]
            self.check(checks.check_seven_line, rep.fixpoint.blocks, rep.exceptional_holes,
                       rep.verdict, orc.minimal, orc.combinations_checked, seven, p)

    # -- CLI ---------------------------------------------------------------------

    def cli(self, args, name, stem):
        """One cold CLI subprocess; returns (exit code, wall s, peak RSS MB, stdout)."""
        out_path = self.out_dir / f"{stem}.out"
        err_path = self.out_dir / f"{stem}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, "-m", "pgcodes.cli", *args]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
        self.attempted += 1
        with self.tr.span(name):
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                raise
            wall = time.perf_counter() - t0
        rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            self.failed += 1
            print(f"operation failed: {' '.join(args)} exited {rc}: "
                  f"{err_path.read_text(errors='replace')[-2000:]}", file=sys.stderr)
        return rc, wall, usage.ru_maxrss / 1024, out_path.read_bytes()


def seven_line_terms(space):
    """The paper's seven-line plane as explicit terms: three lines through
    each of two points R, S of a transversal t, coefficients (1, 1, -1) per
    triple and -1 on t; lowest-index choices throughout."""
    p = space.field.p
    t = 0
    on_t = np.sort(space.hyperplane_point_indices(t))
    r_pt, s_pt = int(on_t[0]), int(on_t[1])
    r = [int(i) for i in np.sort(space.pencil_indices(r_pt)) if i != t][:3]
    s = [int(i) for i in np.sort(space.pencil_indices(s_pt)) if i != t][:3]
    terms = [(r[0], 1), (r[1], 1), (r[2], p - 1), (s[0], 1), (s[1], 1), (s[2], p - 1),
             (t, p - 1)]
    expected = {"blocks": {frozenset([r[0], r[1], s[2]]), frozenset([s[0], s[1], r[2]]),
                           frozenset([t])},
                "holes": {r_pt, s_pt}}
    return terms, expected


def thin_thick(hist: dict[int, int], ctx) -> dict[str, int]:
    """Lines split by secant size as the CLI reports it: thin <= W(1), thick >= U(1)."""
    w1, u1 = bounds.weight_bound_W(1, ctx), bounds.thick_bound_U(1, ctx)
    thin = sum(k for s, k in hist.items() if s <= w1)
    thick = sum(k for s, k in hist.items() if s > w1 and s >= u1)
    return {"thin": thin, "thick": thick, "neither": sum(hist.values()) - thin - thick}


def concurrent_terms(space, rng):
    """Three random hyperplanes through one random subspace of codimension 2,
    coefficient 1: with p not dividing 3 the union has no hole, so the verdict
    must be NotMinimal with a witness."""
    pts = rng.choice(space.num_points, size=space.n - 1, replace=False)
    common = space.pencil_indices(int(pts[0]))
    for pt in pts[1:]:
        common = np.intersect1d(common, space.pencil_indices(int(pt)))
    chosen = rng.choice(common, size=3, replace=False)
    return [(int(h), 1) for h in chosen]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path, src: Path):
    """One workload run; returns (result dict, check failures, notes to print)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    r = Run(wl, seed, trace, out_dir, src)
    tr = r.tr

    # set-up: field_make + space_make on fresh objects, median of several
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPEATS
           or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_REPEATS)):
        r.space = None
        t0 = time.perf_counter()
        field = tr.call("ff.field_make", ff.field_make, wl.p, wl.h)
        r.space = tr.call("geometry.space_make", geometry.space_make, wl.n, field)
        setup_times.append(time.perf_counter() - t0)
    r.check(checks.check_field, r.space.field, r.rng)

    # cold CLI subprocesses, run before the in-process tables exist: whole
    # rounds, each spec once, at least two rounds and until `budget` s of
    # CLI wall time
    budget = seconds * wl.scale
    tr.phase = "cli"
    specs = [r.draw(m) for m in wl.cli_specs]
    paths = []
    for k, (_, terms, _) in enumerate(specs):
        paths.append(out_dir / f"spec-{wl.name}-{k}.json")
        paths[k].write_text(json.dumps({"n": wl.n, "p": wl.p, "h": wl.h,
                                        "terms": [list(t) for t in terms]}))
    cli_walls, cli_rss = [], []
    cli_reports = [[] for _ in specs]
    rounds = 0
    while rounds < CLI_MIN_ROUNDS or sum(cli_walls) < budget:
        rounds += 1
        for k, path in enumerate(paths):
            rc, wall, rss, data = r.cli(["analyze", str(path), *wl.cli_flags],
                                        "cli.analyze", f"cli-{wl.name}-{k}")
            if rc == 0:
                cli_walls.append(wall)
                cli_rss.append(rss)
                cli_reports[k].append(data)
        if not cli_walls:
            break

    # warm-up: the CLI specs in process, which are also the CLI's reference
    for (label, terms, seven), reports in zip(specs, cli_reports):
        _, out = r.codeword(label, terms, seven, "warmup")
        if out is None or not reports:
            continue
        r.check(checks.check_identical, reports)
        rep = out.get("report")
        r.check(checks.check_cli_report, reports[0], terms if "d" in out else None, wl.p,
                verdict=rep.verdict if rep else None,
                oracle_minimal=rep.oracle.minimal if rep and rep.oracle else None,
                histogram=out.get("spectrum"), split=out.get("split"))

    # the closed loop: whole rounds until `budget` s of pipeline time
    loop_times = []
    while sum(loop_times) < budget:
        for m in wl.round:
            elapsed, _ = r.codeword(*r.draw(m), "loop")
            if elapsed is not None:
                loop_times.append(elapsed)
        if not loop_times:
            break

    notes = []
    if trace:
        probes(r)
        metrics = per_layer(r)
        notes.append("self time per layer: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(tr.self_times().items())))
        notes.append(f"pipeline time of the traced loop: {sum(loop_times):.4f} s "
                     f"over {len(loop_times)} codewords")
        trace_path = out_dir / f"trace-{wl.name}-seed{seed}.jsonl"
        tr.write(trace_path)
        notes.append(f"{len(tr.spans)} spans written to {trace_path}")
    elif loop_times and cli_walls:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "codewords_per_s": (len(loop_times) / sum(loop_times), "1/s"),
            "codeword_p50_s": (statistics.median(loop_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_s": (statistics.median(cli_walls), "s"),
            "cli_peak_rss_mb": (max(cli_rss), "MB"),
        }
        notes.append(f"samples: setup {len(setup_times)}, codewords {len(loop_times)} "
                     f"after {len(specs)} warm-up, cli {len(cli_walls)}")
    else:
        metrics = {}
        r.errors.append("no codeword or CLI invocation succeeded")
    result = {"correct": not r.errors, "attempted": r.attempted, "failed": r.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, r.errors, notes


def probes(r: Run):
    """Traced runs only: calls that give every per-layer metric a value on
    every workload, on the workload's own field."""
    wl, tr, rng = r.wl, r.tr, r.probe_rng
    field = r.space.field
    tr.phase = "probe"
    tr.codeword = None

    # geometry on a fresh space: more distinct hyperplanes than the cache holds
    fresh = geometry.space_make(wl.n, field)
    for h in rng.choice(fresh.num_hyperplanes, size=PROBE_CALLS, replace=False).tolist():
        pts = tr.call("geometry.hyperplane_point_indices", fresh.hyperplane_point_indices, h)
        if len(pts) != fresh.theta(wl.n - 1) or not checks.incident_any(
                field, fresh.point_table[pts], fresh.hyperplane_table[h][None]).all():
            r.errors.append(f"hyperplane {h}: wrong point set")
    for pt in rng.choice(fresh.num_points, size=PROBE_CALLS, replace=False).tolist():
        hyps = tr.call("geometry.pencil_indices", fresh.pencil_indices, pt)
        if len(hyps) != fresh.theta(wl.n - 1) or not checks.incident_any(
                field, fresh.hyperplane_table[hyps], fresh.point_table[pt][None]).all():
            r.errors.append(f"point {pt}: wrong pencil")
    del fresh

    # a NotMinimal codeword, so that the witness and every verdict stage run
    terms = concurrent_terms(r.space, rng)
    _, out = r.codeword("concurrent", terms, None, "probe", steps=("decompose", "verdict"))
    if out is not None and out["report"].verdict != checks.NOT_MINIMAL:
        r.errors.append("three hyperplanes through a codim-2 subspace are not NotMinimal")

    # the spectrum, in the plane over the same field, where the pipeline has none
    if "spectrum" not in wl.steps:
        plane = r.space if wl.n == 2 else geometry.space_make(2, field)
        line = int(rng.integers(plane.num_hyperplanes))
        r.codeword("line", [(line, 1)], None, "probe", steps=("spectrum",), space=plane)

    # interpreter start-up, imports and a trivial command
    for i in range(STARTUP_REPEATS):
        rc, _, _, data = r.cli(["geom-info", str(wl.n), str(wl.p), str(wl.h)],
                               "cli.geom-info", f"startup-{wl.name}-{i}")
        if rc == 0 and json.loads(data)["q"] != field.q:
            r.errors.append("geom-info reports the wrong q")


def per_layer(r: Run) -> dict:
    """Per-layer metrics from the spans: the loop's calls where it makes them,
    else the warm-up's, else the probes'."""
    tr = r.tr

    def dur(s):
        return s["end"] - s["start"]

    def spans(name, phases=PHASE_PREFERENCE):
        for phase in phases:
            found = [s for s in tr.spans if s["name"] == name and s["phase"] == phase]
            if found:
                return found
        raise LookupError(name)

    def median(name, phases=PHASE_PREFERENCE):
        return statistics.median(dur(s) for s in spans(name, phases))

    def rate(name, work, phases=PHASE_PREFERENCE):
        found = spans(name, phases)
        return sum(work(s) for s in found) / sum(dur(s) for s in found)

    field = r.space.field
    table = {
        "ff.field_make_s": (lambda: median("ff.field_make", ("setup",)), "s"),
        "ff.table_bytes": (lambda: field.add_table.nbytes + field.mul_table.nbytes
                           + field.inv_table.nbytes, "B"),
        "geometry.space_make_s": (lambda: median("geometry.space_make", ("setup",)), "s"),
        "geometry.hyperplane_points_per_s": (
            lambda: rate("geometry.hyperplane_point_indices", lambda s: 1), "1/s"),
        "geometry.pencil_per_s": (lambda: rate("geometry.pencil_indices", lambda s: 1), "1/s"),
        "codes.combine_s": (lambda: median("codes.combine"), "s"),
        "minimality.decompose_first_s": (
            lambda: dur(min(spans("minimality.decompose", ("warmup", "probe")),
                            key=lambda s: s["id"])), "s"),
        "minimality.decompose_s": (lambda: median("minimality.decompose"), "s"),
        "minimality.peel_s": (lambda: 1 / rate("minimality.decompose", lambda s: s["terms"]),
                              "s"),
        "minimality.verdict_s": (lambda: median("minimality.verdict"), "s"),
        "minimality.refine_s": (lambda: median("minimality.refine_to_fixpoint"), "s"),
        "minimality.holes_s": (lambda: median("minimality.exceptional_holes"), "s"),
        "minimality.witness_s": (lambda: median("minimality.build_witness"), "s"),
        "minimality.oracle_s": (lambda: median("minimality.oracle_minimal"), "s"),
        "minimality.oracle_combinations_per_s": (
            lambda: rate("minimality.oracle_minimal", lambda s: s["combinations"]), "1/s"),
        "bounds.spectrum_s": (lambda: median("bounds.secant_spectrum"), "s"),
        "bounds.spectrum_pairs_per_s": (
            lambda: rate("bounds.secant_spectrum",
                         lambda s: s["weight"] * (s["weight"] - 1) // 2), "1/s"),
        "bounds.spectrum_incidences_per_s": (
            lambda: rate("bounds.secant_spectrum",
                         lambda s: s["weight"] * checks.theta(s["n"] - 1, s["q"])), "1/s"),
        "cli.startup_s": (lambda: median("cli.geom-info", ("probe",)), "s"),
        "trace.codewords_per_s": (lambda: rate("codeword", lambda s: 1, ("loop",)), "1/s"),
    }
    out = {}
    for name, (fn, unit) in table.items():
        try:
            out[name] = (fn(), unit)
        except (LookupError, ZeroDivisionError, statistics.StatisticsError):
            r.errors.append(f"per-layer metric {name}: no measured calls")
    return out

