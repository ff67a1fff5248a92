"""Seeded request generators for the nanocache benchmark workloads.

Every generator is a pure function of (seed, size): the same seed gives
byte-identical request lines, a different seed gives different ones.  The
program under test only ever sees the generated lines.

Per-seed variation is confined to parameter values (knobs, delay targets,
sizes, organizations).  The mix of request kinds, spellings and tiers is
fixed by position or rank, so the work a run does costs about the same for
every seed and seeds can be compared.

Serve workloads are described as templates: a request is
``req_prefix + id + req_suffix``.  The load generator picks the ids
("<prefix>c<connection>n<sequence>"), so every line it sends is unique.
"""

import json
import random
from pathlib import Path

# Reserved for confirming a performance claim on a seed that was not used
# while the change was written (choosing-metrics guide, section 6.3).  Do
# not tune against it.
HELD_OUT_SEED = 9173

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_REQUESTS = ROOT / "tests" / "data" / "batch_requests.jsonl"
FIXTURE_GOLDEN = ROOT / "tests" / "data" / "batch_responses_golden.jsonl"

L1_SIZES = [4096, 8192, 16384, 32768, 65536]
L2_SIZES = [262144, 524288, 1048576, 2097152, 4194304]
ASSOCIATIVITIES = [1, 2, 4, 8, "full"]
BANKS = [1, 2, 4, 8]
NODES = [90, 45, 32, 22]
SCHEMES = ["I", "II", "III"]

ID_TOKEN = "@ID@"


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def split_template(line):
    """(prefix, suffix) of a template around its id token."""
    prefix, sep, suffix = line.partition(ID_TOKEN)
    if not sep or ID_TOKEN in suffix:
        raise ValueError("template needs exactly one id token: " + line)
    return prefix, suffix


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# --------------------------------------------------------------------------
# study_batch: the paper's study through `nanocache_cli batch`.


def study_batch(seed, smoke=False):
    """Request lines of one study: the 100-line fixture first (so its line
    numbers match the golden), then the nine Figure-2 menus, the Section 5
    L1/L2 size sweeps and Section 4 scheme sweeps at seeded targets.
    Returns (lines, fixture_line_count)."""
    rng = _rng("study_batch", seed)
    lines = FIXTURE_REQUESTS.read_text().splitlines()
    fixture = len(lines)
    for num_tox in (1, 2, 3):
        for num_vth in (1, 2, 3):
            target = _knob(rng, 1400.0, 3000.0, 0.1)
            if smoke and num_tox * num_vth > 2:
                continue
            lines.append(_dumps({
                "schema_version": 4, "id": f"menu{num_tox}x{num_vth}",
                "kind": "tuple_menu", "num_tox": num_tox, "num_vth": num_vth,
                "delay": {"targets_ps": [target]}}))
    for i in range(3):
        lines.append(_dumps({
            "schema_version": 4, "id": f"l1sweep{i}", "kind": "sweep",
            "sweep": "l1_sizes",
            "delay": {"target_ps": _knob(rng, 1700.0, 2600.0, 0.1)}}))
    for scheme in ("II", "III"):
        for i in range(3):
            lines.append(_dumps({
                "schema_version": 4, "id": f"l2sweep{scheme}{i}",
                "kind": "sweep", "sweep": "l2_sizes", "scheme": scheme,
                "delay": {"target_ps": _knob(rng, 1700.0, 2600.0, 0.1)}}))
    for size in L1_SIZES:
        ladder = sorted(_knob(rng, 1100.0, 2600.0, 0.1) for _ in range(5))
        lines.append(_dumps({
            "schema_version": 4, "id": f"schemes{size}", "kind": "sweep",
            "sweep": "schemes", "target": {"level": "l1", "size_bytes": size},
            "delay": {"targets_ps": ladder}}))
    return lines, fixture


# --------------------------------------------------------------------------
# Shared request builders.  Each returns a line with the id token.


def _knob(rng, lo, hi, step=None):
    """A value in [lo, hi]: continuous (6 decimals), or on a `step` grid."""
    if step is None:
        return round(rng.uniform(lo, hi), 6)
    steps = int(round((hi - lo) / step))
    return round(lo + step * rng.randrange(steps + 1), 4)


def _org(rng):
    return {"associativity": rng.choice(ASSOCIATIVITIES),
            "banks": rng.choice(BANKS)}


def _eval(level, size, vth, tox, version=4, org=None, node=None):
    if version == 1:
        return _dumps({"schema_version": 1, "id": ID_TOKEN, "kind": "eval",
                       "level": level, "size_bytes": size,
                       "vth_v": vth, "tox_a": tox})
    obj = {"schema_version": version, "id": ID_TOKEN, "kind": "eval",
           "target": {"level": level, "size_bytes": size},
           "knobs": {"vth_v": vth, "tox_a": tox}}
    if org is not None:
        obj["organization"] = org
    if node is not None:
        obj["node_nm"] = node
    return _dumps(obj)


def _optimize(level, size, scheme, target, version=4, org=None, gating=None,
              node=None):
    if version == 1:
        return _dumps({"schema_version": 1, "id": ID_TOKEN,
                       "kind": "optimize", "level": level, "size_bytes": size,
                       "scheme": scheme, "delay_ps": target})
    obj = {"schema_version": version, "id": ID_TOKEN, "kind": "optimize",
           "target": {"level": level, "size_bytes": size}, "scheme": scheme,
           "delay": {"target_ps": target}}
    if org is not None:
        obj["organization"] = org
    if gating is not None:
        obj["power_gating"] = gating
    if node is not None:
        obj["node_nm"] = node
    return _dumps(obj)


CAPABILITIES = _dumps({"schema_version": 4, "id": ID_TOKEN,
                       "kind": "capabilities"})


# --------------------------------------------------------------------------
# serve_hot: a Zipf-popular key set, warmed before timing.


def _hot_key(rng, rank):
    """One pool key; its kind and spelling are fixed by rank."""
    slot = rank % 20
    level = rng.choice(["l1", "l2"])
    size = rng.choice(L1_SIZES if level == "l1" else L2_SIZES)
    vth = _knob(rng, 0.20, 0.50, 0.01)
    tox = _knob(rng, 10.0, 14.0, 0.25)
    if slot < 12 or slot == 19:
        version = {3: 1, 7: 2, 10: 3, 11: 3, 19: 4}.get(slot, 4)
        org = _org(rng) if slot in (10, 11, 19) else None
        ident = ("eval", level, size, vth, tox, _dumps(org))
        return ident, _eval(level, size, vth, tox, version, org)
    size = rng.choice(L1_SIZES)
    scheme = SCHEMES[rank % 3]
    target = _knob(rng, 1100.0, 2600.0, 5.0)
    version = {14: 1, 16: 3, 18: 2}.get(slot, 4)
    org = _org(rng) if slot == 16 else None
    ident = ("optimize", size, scheme, target, _dumps(org))
    return ident, _optimize("l1", size, scheme, target, version, org)


def serve_hot(seed, keys=3000, connections=4, draws=20000):
    """Templates of the hot key pool plus per-connection Zipf(1.0)
    schedules (lists of pool indices).  Rank 9 is the capabilities
    request."""
    rng = _rng("serve_hot", seed)
    pool, seen = [], set()
    rank = 0
    while len(pool) < keys:
        if rank == 9:
            pool.append(CAPABILITIES)
            rank += 1
            continue
        ident, line = _hot_key(rng, rank)
        if ident in seen:
            continue
        seen.add(ident)
        pool.append(line)
        rank += 1
    cum, total = [], 0.0
    for r in range(keys):
        total += 1.0 / (r + 1)
        cum.append(total)
    schedules = [rng.choices(range(keys), cum_weights=cum, k=draws)
                 for _ in range(connections)]
    return pool, schedules


def warm_schedules(pool_size, connections):
    """Every pool key once, dealt round-robin across the connections."""
    return [list(range(c, pool_size, connections)) for c in range(connections)
            if c < pool_size]


# --------------------------------------------------------------------------
# serve_tiered: misses, disk repeats and surrogate-covered requests.

SURROGATE_L1_TARGETS = (950.0, 2350.0)  # inside the default optimize ladder
SURROGATE_L2_TARGETS = (3450.0, 6700.0)


def _miss(rng, j):
    """A never-repeated exact request (continuous parameters)."""
    kind = j % 5
    level = rng.choice(["l1", "l2"])
    size = rng.choice(L1_SIZES if level == "l1" else L2_SIZES)
    vth = _knob(rng, 0.20, 0.50)
    tox = _knob(rng, 10.0, 14.0)
    if kind == 0:
        return _eval(level, size, vth, tox, 4, org=_org(rng))
    if kind == 1:
        return _eval(level, size, vth, tox, 4, node=rng.choice(NODES))
    size = rng.choice(L1_SIZES)
    scheme = rng.choice(SCHEMES)
    target = _knob(rng, 1100.0, 2600.0)
    if kind == 2:
        return _optimize("l1", size, scheme, target, 4, org=_org(rng))
    if kind == 3:
        return _optimize("l1", size, scheme, target, 4, gating={
            "enabled": True, "perf_loss_budget": _knob(rng, 0.0, 0.2)})
    return _optimize("l1", size, scheme, target, 4, node=rng.choice(NODES))


def _covered(rng, j):
    """A request the default surrogate tables answer."""
    level = "l1" if j % 2 == 0 else "l2"
    size = 16384 if level == "l1" else 1048576
    if j % 4 < 2:
        return _eval(level, size, _knob(rng, 0.21, 0.49),
                     _knob(rng, 10.1, 13.9))
    lo, hi = SURROGATE_L1_TARGETS if level == "l1" else SURROGATE_L2_TARGETS
    return _optimize(level, size, rng.choice(SCHEMES), _knob(rng, lo, hi))


def serve_tiered(seed, lines=6000, connections=4):
    """Templates of one pass plus per-connection schedules.  Per 20 lines
    of a connection: 13 never-repeated exact misses, 3 repeats of an
    earlier line of the same connection (answered before the repeat is
    sent, so it is a disk-cache hit), 4 surrogate-covered requests."""
    rng = _rng("serve_tiered", seed)
    pool, schedules = [], []
    for _ in range(connections):
        mine = []
        originals = []
        for j in range(lines // connections):
            slot = j % 20
            if 13 <= slot < 16 and originals:
                line = pool[rng.choice(originals)]
            elif slot >= 16:
                line = _covered(rng, j)
            else:
                line = _miss(rng, j)
            if not (13 <= slot < 16):
                originals.append(len(pool))
            mine.append(len(pool))
            pool.append(line)
        schedules.append(mine)
    return pool, schedules


# --------------------------------------------------------------------------


def materialize(pool, schedules, limit=None):
    """The concrete request lines the load generator sends, per connection,
    for one pass over the schedules (ids as nc_load assigns them)."""
    out = []
    for c, schedule in enumerate(schedules):
        lines = []
        for n, index in enumerate(schedule[:limit]):
            prefix, suffix = split_template(pool[index])
            lines.append(f"{prefix}c{c}n{n}{suffix}")
        out.append(lines)
    return out


def with_ids(pool, prefix="R"):
    """Pool templates as concrete lines with ids <prefix><index>."""
    return [t.replace(ID_TOKEN, f"{prefix}{i}") for i, t in enumerate(pool)]


def response_template(response, request_id):
    """Split a reference response around its echoed id."""
    needle = f'"id":"{request_id}"'
    if response.count(needle) != 1:
        raise ValueError(f"response does not echo id {request_id} once")
    head, _, tail = response.partition(needle)
    return head + '"id":"', '"' + tail
