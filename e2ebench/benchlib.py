"""The benchmark's own logic, kept free of process handling so that
`test_benchlib.py` can check it: percentile selection, the duration
mask, splitting `exp all` output into experiments, the output checks and
failure counting."""

import json
import math
import re
import statistics

# ---------------------------------------------------------------- stats


def median(values):
    """The median of a non-empty list."""
    return statistics.median(values)


def percentile(values, q):
    """The nearest-rank `q`-th percentile: the smallest sample with at
    least `q`% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[rank - 1]


# ----------------------------------------------------------------- mask

DURATION = re.compile(r"[0-9]+(\.[0-9]+)?(ns|µs|ms|s)( |,|$)")

# The only experiment that prints its own wall-clock durations.
TIMED_EXPERIMENT = "ordering_ablate"


def mask_durations(line):
    """Replaces each self-reported duration on `line` by `TIME`, the
    same rule the repository's CI diffs use."""
    return DURATION.sub(lambda m: "TIME" + m.group(3), line)


def masked(name, lines):
    """An experiment's output lines with durations masked, if it is the
    experiment that prints them; other experiments are compared
    verbatim."""
    if name != TIMED_EXPERIMENT:
        return list(lines)
    return [mask_durations(line) for line in lines]


# ------------------------------------------------------------- segments


def split_segments(text, line_counts):
    """Splits one `exp all` stdout into `{experiment: lines}` using each
    experiment's line count, in run order. Whatever is left over after
    the last experiment is appended to it, so surplus output fails that
    experiment's comparison instead of vanishing."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    out, at = {}, 0
    for i, (name, n) in enumerate(line_counts):
        end = len(lines) if i == len(line_counts) - 1 else at + n
        out[name] = lines[at:end]
        at = end
    return out


# --------------------------------------------------------------- checks


def check_graph12(lines):
    """Graph 12 tabulates f(m, s) = 1 - (1-m)^s in percent, and the
    length at which it reaches 50%; recompute both."""
    header = next((i for i, l in enumerate(lines) if l.split()[:1] == ["len"]), None)
    if header is None:
        return False
    ms = [float(x) for x in lines[header].split()[1:]]
    rows = 0
    for line in lines[header + 1:]:
        cells = line.split()
        if len(cells) != len(ms) + 1:
            break
        s = int(cells[0])
        for m, cell in zip(ms, cells[1:]):
            if abs(float(cell) - 100 * (1 - (1 - m) ** s)) > 0.0501:
                return False
        rows += 1
    dividing = [l.split() for l in lines if l.strip().startswith("m = ")]
    for cells in dividing:
        m, length = float(cells[2]), int(cells[4])
        if length != math.ceil(math.log(0.5) / math.log(1 - m)):
            return False
    return rows > 0 and len(dividing) == len(ms)


def check_graph1(lines):
    """Graph 1 lists the average non-loop miss rate by order rank; the
    orders are sorted, so the rates never fall."""
    try:
        start = lines.index("# rank miss%") + 1
    except ValueError:
        return False
    points = []
    for line in lines[start:]:
        cells = line.split()
        if len(cells) != 2:
            break
        points.append((int(cells[0]), float(cells[1])))
    ranks = [r for r, _ in points]
    rates = [m for _, m in points]
    return (
        len(points) > 1
        and ranks == sorted(set(ranks))
        and all(a <= b for a, b in zip(rates, rates[1:]))
    )


# The ordering roster: the suite without matrix300.
ROSTER_SIZE = 22


def check_table4(lines):
    """Table 4 counts the winning order of every C(n, n/2) subset of the
    ordering roster: the trial count must be exactly that, Graph 2's
    cumulative share must reach 100% at the number of distinct winners,
    and when all winners are listed their shares must sum to 100%."""
    want = math.comb(ROSTER_SIZE, ROSTER_SIZE // 2)
    head = re.match(r"# Table 4: .* over (\d+) trials$", lines[0]) if lines else None
    if not head or int(head.group(1)) != want:
        return False
    shares = []
    for line in lines[2:]:
        cells = line.split()
        if not cells or not re.fullmatch(r"\d+\.\d\d", cells[0]):
            break
        shares.append(float(cells[0]))
    try:
        g2 = lines.index("# Graph 2: cumulative trial share of the most common orders")
    except ValueError:
        return False
    cumulative = []
    for line in lines[g2 + 1:]:
        cells = line.split()
        if len(cells) != 2:
            break
        cumulative.append((int(cells[0]), float(cells[1])))
    distinct = next(
        (int(l.split(":")[1]) for l in lines if l.startswith("distinct winning orders:")),
        None,
    )
    if not cumulative or distinct is None:
        return False
    if cumulative[-1] != (distinct, 100.0):
        return False
    if distinct <= len(shares) and abs(sum(shares) - 100.0) > 0.01 * len(shares):
        return False
    return True


CLASSES = ("loop_branches", "nonloop", "all")
FIELDS = ("dynamic", "misses", "perfect_misses")


def check_summary(lines, oracle):
    """`summary_json` against the independently recounted oracle: every
    benchmark's dynamic branches and combined-heuristic misses and
    perfect-predictor misses per class, the ordering perfect <=
    heuristic <= dynamic, and loop + non-loop = all."""
    try:
        summary = json.loads("\n".join(lines))
    except ValueError:
        return False
    benches = {b["name"]: b for b in summary.get("benchmarks", [])}
    if set(benches) != set(oracle):
        return False
    for name, want in oracle.items():
        got = benches[name]
        if got["dynamic_branches"] != want["dynamic_branches"]:
            return False
        h = got["heuristic"]
        if h != want["heuristic"]:
            return False
        for c in CLASSES:
            if not h[c]["perfect_misses"] <= h[c]["misses"] <= h[c]["dynamic"]:
                return False
        for f in FIELDS:
            if h["loop_branches"][f] + h["nonloop"][f] != h["all"][f]:
                return False
        if h["all"]["dynamic"] != got["dynamic_branches"]:
            return False
    return True


def exits_invariant(oracle):
    """Optimisation preserves meaning: each benchmark's reference-input
    exit value is the same at -O, no-inline and -O0."""
    return all(len(set(b["exit"])) == 1 for b in oracle.values())


def content_checks(oracle):
    """The per-experiment checks that look at an experiment's own
    output (besides the comparison with the reference pass)."""
    invariant = exits_invariant(oracle)
    return {
        "table4": check_table4,
        "graph1": check_graph1,
        "graph12": check_graph12,
        "summary_json": lambda lines: check_summary(lines, oracle),
        # opt_ablate reports the same programs at the three option sets;
        # it is meaningful only if they compute the same results.
        "opt_ablate": lambda lines: invariant,
    }


def failed_experiments(text, returncode, line_counts, reference, checks):
    """The experiments of one `exp all` pass that fail: all of them if
    the process failed, else each one whose masked output differs from
    the reference pass or whose content check fails. A check that
    raises counts as a failure of that experiment, never as an abort."""
    names = [name for name, _ in line_counts]
    if returncode != 0:
        return names
    segments = split_segments(text, line_counts)
    failed = []
    for name in names:
        lines = segments[name]
        try:
            ok = masked(name, lines) == masked(name, reference[name])
            ok = ok and checks.get(name, lambda _: True)(lines)
        except Exception:  # noqa: BLE001 — any fault in a check is a failed operation
            ok = False
        if not ok:
            failed.append(name)
    return failed


# --------------------------------------------------------------- result


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last stdout line. `metrics` maps a name to
    `(value, unit)`."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
