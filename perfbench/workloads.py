"""The three workloads: how each operation kind drives friezelab, how its
output is checked, and what it adds to the per-layer counters.

Every call from the benchmark into a friezelab layer goes through
`Context.call`, which names the layer (for failure attribution) and opens a
span in traced mode.  Counters are computed from the calls' inputs and
outputs after the operation's timed region, and only in traced mode.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from collections import Counter

from friezelab import catalog, fixtures
from friezelab.cc import cc_map
from friezelab.frieze import generate, growth, measured_growth
from friezelab.modular import modular_generator
from friezelab.quivers import Quiver, has_double_arrow, mutation_class_search
from friezelab.rep import QuiverRep, count_points
from friezelab.seeds import Seed
from friezelab.theta import theta

import checks
from checks import expect
from inputs import COUNT_PRIMES, DUALITY_SAMPLE, E6_DELTA

LAYERS = ("quivers", "seeds", "theta", "modular", "laurent", "rep", "cc", "frieze")
# Names of the calls into the layers, one span each.
SPANS = ("quivers.search", "seeds.mutate", "theta.theta", "modular.generator", "laurent.mul",
         "rep.count", "cc.cc_map", "frieze.generate", "frieze.growth")


class Context:
    """Shared state of one run: the tracer, prepared fixtures, counters."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.layer = "bench"
        self.counts: Counter = Counter()
        self.kronecker = catalog.kronecker()
        self.bases = {n: catalog.e_double_arrow(n) for n in (6, 7)}
        self.e6 = catalog.e6_affine()
        self.e6_dual = Quiver(self.e6.labels, [[-x for x in row] for row in self.e6.b])
        # dimension vectors e <= delta, grouped by the central entry e[0]
        self.e6_dimvectors = [[(c,) + rest for rest in
                               itertools.product(*(range(d + 1) for d in E6_DELTA[1:]))]
                              for c in range(E6_DELTA[0] + 1)]
        self.candidates = {p: {e: _candidates(E6_DELTA, e, p)
                               for group in self.e6_dimvectors for e in group}
                           for p in COUNT_PRIMES}
        golden = fixtures.load_json("d4/goldens.json")["cc_m_lambda"]
        self.cc_golden_vars = tuple(golden["vars"])
        self.cc_golden = {tuple(int(x) for x in t["exp"]): int(t["coef"])
                          for t in golden["terms"]}

    def call(self, layer_call: str, fn, *args):
        """Run one friezelab call as the named layer call ("layer.call")."""
        self.layer = layer_call
        if self.tracer.enabled:
            self.counts[layer_call + "_calls"] += 1
        with self.tracer.span(layer_call):
            out = fn(*args)
        self.layer = "bench"
        return out

    def mul(self, a, b):
        if self.tracer.enabled:
            self.counts["laurent.mul_pairs"] += len(a.terms) * len(b.terms)
        return self.call("laurent.mul", operator.mul, a, b)

    def count(self, rep, e, p):
        value = self.call("rep.count", count_points, rep, e, p)
        if self.tracer.enabled:
            self.counts["rep.candidates"] += _candidates(rep.dims, e, p)
            self.counts["rep.hits"] += value
        return value


def _candidates(dims, e, p) -> int:
    """Size of the product of vertex Grassmannians that count_points scans."""
    total = 1
    for d, x in zip(dims, e):
        total *= checks.gaussian_binomial(d, x, p)
    return total


def _seed_terms(seed) -> int:
    return sum(len(v.terms) for v in seed.vars)


def _product(ctx, factors, nvars):
    """Term map of a product of Laurent polynomials, multiplied with the
    library's __mul__; the empty product is the constant 1."""
    if not factors:
        return {(0,) * nvars: 1}
    acc = factors[0]
    for f in factors[1:]:
        acc = ctx.mul(acc, f)
    return acc.terms


# -- mutation-search ------------------------------------------------------------

def _initial_mutate(quiver, word):
    return Seed.initial(quiver).mutate_word(word)


def run_search(op, ctx):
    b = checks.b_matrix(op["labels"], op["arrows"])
    quiver = Quiver(op["labels"], b)
    arrived, word = ctx.call("quivers.search", mutation_class_search, quiver, has_double_arrow)
    seed = ctx.call("seeds.mutate", _initial_mutate, quiver, word)
    value = ctx.call("theta.theta", theta, seed)
    return {"b": b, "arrived": arrived, "word": word, "seed": seed, "theta": value}


def check_search(op, out, ctx):
    problems = []
    word = out["word"].sequence
    values, b_end = checks.exchange_at_ones(out["b"], word)
    expect(problems, [list(r) for r in out["arrived"].b] == b_end, "quivers",
           "search returned a quiver other than the replayed word's")
    expect(problems, checks.double_arrow(b_end) is not None, "quivers",
           "search word ends at a quiver without a double arrow")
    if problems:
        return problems
    seed_values = [checks.coefficient_sum(v.terms) for v in out["seed"].vars]
    expect(problems, seed_values == values, "seeds",
           "cluster variables at ones differ from the integer replay")
    value = out["theta"]
    want = checks.theta_at_ones(b_end, values)
    expect(problems, value.integer == want, "theta",
           "theta at ones is %d, integer replay gives %d" % (value.integer, want))
    expect(problems, checks.coefficient_sum(value.laurent.terms) == want, "theta",
           "theta's coefficients do not sum to its value at ones")
    expect(problems, checks.positive(value.laurent.terms), "theta",
           "theta has a non-positive coefficient")
    return problems


def account_search(op, out, ctx):
    ctx.counts["quivers.word_len"] += len(out["word"].sequence)
    ctx.counts["seeds.terms_out"] += _seed_terms(out["seed"])
    ctx.counts["theta.terms_out"] += len(out["theta"].laurent.terms)


def exact_search(out):
    yield repr((out["word"].sequence, out["arrived"].b))
    yield out["theta"].laurent.dumps()
    yield str(out["theta"].integer)


# -- exchange: Kronecker chains ---------------------------------------------------

def run_kronecker(op, ctx):
    seed = Seed.initial(ctx.kronecker)
    chain = [seed]
    k = op["start"]
    for _ in range(op["length"]):
        seed = ctx.call("seeds.mutate", seed.mutate, k)
        chain.append(seed)
        k = 1 - k
    value = ctx.call("theta.theta", theta, seed)
    return {"chain": chain, "theta": value}


def check_kronecker(op, out, ctx):
    problems = []
    chain = out["chain"]
    b = [list(r) for r in ctx.kronecker.b]
    b_start = b
    fib = checks.odd_fibonacci(len(chain) + 1)
    k = op["start"]
    for step in range(1, len(chain)):
        before, after = chain[step - 1], chain[step]
        new = after.vars[k]
        expect(problems, checks.positive(new.terms), "seeds",
               "step %d: a coefficient is not positive" % step)
        expect(problems, checks.coefficient_sum(new.terms) == fib[step], "seeds",
               "step %d: value at ones is not F_%d" % (step, 2 * step + 1))
        expect(problems, after.vars[1 - k].terms == before.vars[1 - k].terms, "seeds",
               "step %d: the unmutated variable changed" % step)
        nvars = len(b)
        plus = [before.vars[j] for j in range(nvars) for _ in range(max(b[j][k], 0))]
        minus = [before.vars[j] for j in range(nvars) for _ in range(max(-b[j][k], 0))]
        lhs = ctx.mul(before.vars[k], new).terms
        rhs = checks.merged(_product(ctx, plus, nvars), _product(ctx, minus, nvars))
        expect(problems, lhs == rhs, "seeds",
               "step %d: x_k * x'_k differs from P+ + P-" % step)
        b = checks.mutate_matrix(b, k)
        expect(problems, [list(r) for r in after.quiver.b] == b, "seeds",
               "step %d: quiver differs from the replayed mutation" % step)
        k = 1 - k
    _check_invariant_theta(problems, out["theta"], b_start)
    return problems


def _check_invariant_theta(problems, value, b_start):
    want = checks.initial_theta_terms(b_start)
    expect(problems, value.laurent.terms == want, "theta",
           "theta at the arrived seed differs from theta at the start seed")
    expect(problems, value.integer == checks.coefficient_sum(want), "theta",
           "theta at ones is %d, expected %d" % (value.integer, checks.coefficient_sum(want)))


def account_kronecker(op, out, ctx):
    ctx.counts["seeds.terms_out"] += sum(_seed_terms(s) for s in out["chain"][1:])
    ctx.counts["theta.terms_out"] += len(out["theta"].laurent.terms)


def exact_kronecker(out):
    for v in out["chain"][-1].vars:
        yield v.dumps()
    yield out["theta"].laurent.dumps()


# -- exchange: modular words on the E6/E7 double-arrow base seeds -----------------

def run_modular(op, ctx):
    start = ctx.bases[op["n"]].permuted(op["perm"])
    seed = Seed.initial(start)
    for generator in op["word"]:
        seed = ctx.call("modular.generator", modular_generator, seed, generator)
    value = ctx.call("theta.theta", theta, seed)
    return {"start": start, "seed": seed, "theta": value}


def check_modular(op, out, ctx):
    problems = []
    b_start = [list(r) for r in out["start"].b]
    expect(problems, [list(r) for r in out["seed"].quiver.b] == b_start, "modular",
           "the word did not return to the start quiver")
    expect(problems, all(checks.positive(v.terms) for v in out["seed"].vars), "modular",
           "an arrived cluster variable has a non-positive coefficient")
    _check_invariant_theta(problems, out["theta"], b_start)
    return problems


def account_modular(op, out, ctx):
    ctx.counts["seeds.terms_out"] += _seed_terms(out["seed"])
    ctx.counts["theta.terms_out"] += len(out["theta"].laurent.terms)


def exact_modular(out):
    for v in out["seed"].vars:
        yield v.dumps()
    yield out["theta"].laurent.dumps()


# -- tube -----------------------------------------------------------------------------

def run_cc(op, ctx):
    return ctx.call("cc.cc_map", cc_map, catalog.d4_m_lambda(op["lambda"]))


def check_cc(op, out, ctx):
    problems = []
    expect(problems, out.laurent.vars == ctx.cc_golden_vars
           and out.laurent.terms == ctx.cc_golden, "cc",
           "generic character for lambda=%d differs from the golden" % op["lambda"])
    expect(problems, out.at_ones == checks.coefficient_sum(ctx.cc_golden), "cc",
           "generic character at ones is %d" % out.at_ones)
    return problems


def exact_cc(out):
    yield out.laurent.dumps()
    yield str(out.at_ones)


def _e6_rep(ctx, maps):
    return QuiverRep(ctx.e6, E6_DELTA, maps)


def _e6_dual_rep(ctx, maps):
    by_arrow = dict(zip(ctx.e6.arrows(), maps))
    # the dual arrow t -> h carries the transpose of the map on h -> t
    dual_maps = [[list(col) for col in zip(*by_arrow[(h, t)])]
                 for t, h in ctx.e6_dual.arrows()]
    return QuiverRep(ctx.e6_dual, E6_DELTA, dual_maps)


def run_count(op, ctx):
    rep = _e6_rep(ctx, op["maps"])
    p = op["p"]
    return {e: ctx.count(rep, e, p) for c in op["centers"] for e in ctx.e6_dimvectors[c]}


def check_count(op, out, ctx):
    problems = []
    p = op["p"]
    for trivial in ((0,) * len(E6_DELTA), E6_DELTA):
        expect(problems, out.get(trivial, 1) == 1, "rep",
               "the zero and the full subrepresentation must be counted once")
    bounds = ctx.candidates[p]
    expect(problems, all(0 <= c <= bounds[e] for e, c in out.items()), "rep",
           "a count exceeds the number of candidate subspace tuples")
    dual = _e6_dual_rep(ctx, op["maps"])
    for e in checks.duality_sample(E6_DELTA, op["centers"], op["duality_seed"],
                                   DUALITY_SAMPLE):
        co = tuple(d - x for d, x in zip(E6_DELTA, e))
        expect(problems, ctx.count(dual, co, p) == out[e], "rep",
               "count_points(M, %s) differs from count_points(DM, %s) at p=%d" % (e, co, p))
    return problems


def exact_count(out):
    yield repr(sorted(out.items()))


def run_frieze(op, ctx):
    pattern = ctx.call("frieze.generate", generate, op["quiddity"], op["depth"])
    s_k = ctx.call("frieze.growth", growth, pattern, op["k"])
    measured = ctx.call("frieze.growth", measured_growth, pattern, op["k"])
    return {"pattern": pattern, "growth": s_k, "measured": measured}


def check_frieze(op, out, ctx):
    problems = []
    want = checks.chebyshev_t(op["k"], checks.TUBE_S1[tuple(op["quiddity"])])
    expect(problems, out["measured"] == want, "frieze",
           "measured_growth(f, %d) differs from T_%d(s_1)" % (op["k"], op["k"]))
    expect(problems, out["growth"] == want, "frieze",
           "growth(f, %d) differs from T_%d(s_1)" % (op["k"], op["k"]))
    return problems


def _deepest(op, out):
    n, depth = len(op["quiddity"]), op["depth"]
    return [out["pattern"].entry(i, i + depth + 1) for i in range(n)]


def account_frieze(op, out, ctx):
    ctx.counts["frieze.entries"] += len(op["quiddity"]) * op["depth"]
    bits = max(x.bit_length() for x in _deepest(op, out))
    ctx.counts["frieze.max_bits"] = max(ctx.counts["frieze.max_bits"], bits)


def exact_frieze(out):
    yield hex(out["growth"])
    yield hex(out["measured"])
    pattern = out["pattern"]
    yield hashlib.sha256(repr(pattern.row(pattern.depth)).encode()).hexdigest()


# -- dispatch -------------------------------------------------------------------------

def label(op) -> str:
    """Operation kind plus its size class, for the per-kind breakdown."""
    sizes = {"search": ("type",), "kronecker": ("length",), "modular": ("n",),
             "count": ("p", "centers"), "frieze": ("quiddity",)}.get(op["kind"], ())
    return "/".join([op["kind"]] + [str(op[key]) for key in sizes])


KINDS = {
    "search": (run_search, check_search, account_search, exact_search),
    "kronecker": (run_kronecker, check_kronecker, account_kronecker, exact_kronecker),
    "modular": (run_modular, check_modular, account_modular, exact_modular),
    "cc": (run_cc, check_cc, None, exact_cc),
    "count": (run_count, check_count, None, exact_count),
    "frieze": (run_frieze, check_frieze, account_frieze, exact_frieze),
}

# One small operation per kind, run during set-up so that lazy
# initialisation (such as the modular generators' restoring permutations)
# finishes before timing.
WARMUP = {
    "mutation-search": [{"kind": "search", "type": "D4", "labels": ["1", "2", "3", "4", "5"],
                         "arrows": [["3", "1"], ["3", "2"], ["4", "3"], ["5", "3"]]}],
    "exchange": [{"kind": "kronecker", "length": 4, "start": 0}]
    + [{"kind": "modular", "n": n, "perm": list(range(n + 1)), "word": ["ta", "tb", "tc"]}
       for n in (6, 7)],
    "tube": [{"kind": "cc", "lambda": 2},
             {"kind": "frieze", "quiddity": [8, 2], "depth": 40, "k": 20}],
}
