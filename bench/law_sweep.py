"""law-sweep: the algebraic checks the other workloads never reach.

One round holds, in a seeded order, ``MENU[kind]`` trials of each kind:

* ``group``: the criterion-01 group laws on random swap words;
* ``laws``: ``check_laws`` on one shipped instance, every instance once;
* ``fresh``: ``fresh_dec`` against ``fresh_universal_probe`` with ten
  witnesses from ``fresh_many``;
* ``abstraction``: ``alpha_equiv_dec`` on abstractions over terms;
* ``fcb``: ``fcb_lift`` of the Lam constructor, and ``check_fcb`` on a
  function that meets the binder condition and one that does not;
* ``alpha_rec``: alpha-structural recursion reproducing ``fv``.

References: group laws and instance laws hold by construction; freshness
is read off a support the generator computes itself; alpha-equivalence
and the lifted constructor are compared by de Bruijn tokens; ``fv`` is
the generator's own walk.
"""

from __future__ import annotations

import random

from harness import Op
from refs import free_names, term_db

NAME = "law-sweep"
WHY = (
    "perms, nominal.check_laws, freshness, abstraction and suppfn, "
    "which the other three workloads never call"
)
SETUP = (
    "from nomset import *\n"
    "iname, iterm = instance_name(), instance_term()\n"
    "insts = [iname, instance_trivial(), instance_pair(iname, iname),\n"
    "         instance_sum(iname, instance_trivial()), instance_option(iname),\n"
    "         instance_list(iname), instance_nameset(),\n"
    "         instance_abstraction(iname), iterm]"
)
MENU = {"group": 40, "laws": 9, "fresh": 28, "abstraction": 20, "fcb": 10,
        "alpha_rec": 10}
LAW_TRIALS = 8
FCB_TRIALS = 5
WITNESSES = 10

TAIL_D = 1000  # latency_tail_ms at p99.9; see harness.tail


class Workload:
    def __init__(self, api):
        import nomset as n

        pool6 = tuple(n.Name(i) for i in range(6))
        pool3 = pool6[:3]
        self.pool6 = pool6
        iname, ibool = n.instance_name(), n.instance_trivial()
        iterm, inset = n.instance_term(), n.instance_nameset()
        self.iterm = iterm

        def name(rng):
            return rng.choice(pool6)

        def term(rng):
            return _term(rng, pool3, 8)

        # (label, instance, generator, reference support)
        self.instances = [
            ("name", iname, name, lambda v: {v}),
            ("bool", ibool, lambda r: r.random() < 0.5, lambda v: set()),
            ("pair", n.instance_pair(iname, iname),
             lambda r: (name(r), name(r)), lambda v: set(v)),
            ("sum", n.instance_sum(iname, ibool),
             lambda r: n.Left(name(r)) if r.random() < 0.5 else n.Right(r.random() < 0.5),
             lambda v: {v.value} if isinstance(v, n.Left) else set()),
            ("option", n.instance_option(iname),
             lambda r: None if r.random() < 0.25 else name(r),
             lambda v: set() if v is None else {v}),
            ("list", n.instance_list(iname),
             lambda r: tuple(name(r) for _ in range(r.randrange(5))),
             lambda v: set(v)),
            ("nameset", inset,
             lambda r: frozenset(a for a in pool6 if r.random() < 0.4),
             lambda v: set(v)),
            ("abstraction", n.instance_abstraction(iname),
             lambda r: n.Abstraction(name(r), name(r)),
             lambda v: {v.term} - {v.name}),
            ("term", iterm, term, lambda v: set(free_names(v))),
        ]
        # Freshness trials skip bool: every name is fresh for it.
        self.nontrivial = [x for x in self.instances if x[0] != "bool"]
        self.term_gen = term
        pair_name_term = n.instance_pair(iname, iterm)
        self.f_lam = n.SuppFn(lambda ax: n.Lam(ax[0], ax[1]), frozenset(),
                              dom=pair_name_term, cod=iterm)
        self.f_var = n.SuppFn(lambda ax: n.Var(ax[0]), frozenset(),
                              dom=pair_name_term, cod=iterm)
        self.fv_rec = api.alpha_rec(
            inset,
            n.SuppFn(lambda a: frozenset({a}), frozenset(), dom=iname, cod=inset),
            n.SuppFn(lambda st: st[0] | st[1], frozenset(),
                     dom=n.instance_pair(inset, inset), cod=inset),
            n.SuppFn(lambda ns: ns[1] - {ns[0]}, frozenset(),
                     dom=n.instance_pair(iname, inset), cod=inset),
        )

    def rounds(self, seed: int):
        rng = random.Random(seed)
        makers = {"group": self._group, "laws": self._laws,
                  "fresh": self._fresh, "abstraction": self._abstraction,
                  "fcb": self._fcb, "alpha_rec": self._alpha_rec}
        while True:
            batch = []
            for kind, count in MENU.items():
                batch += [makers[kind](rng, i) for i in range(count)]
            rng.shuffle(batch)
            yield batch

    # -- group laws ---------------------------------------------------------

    def _group(self, rng, i) -> Op:
        pool = self.pool6

        def word():
            return tuple((rng.choice(pool), rng.choice(pool))
                         for _ in range(rng.randrange(6)))

        p, q, r = word(), word(), word()
        a = rng.choice(pool)

        def call(api):
            comp, inv, eq, app = (api.perm_compose, api.perm_inverse,
                                  api.perm_equiv, api.perm_apply)
            laws = (
                eq(comp(comp(p, q), r), comp(p, comp(q, r))),
                app(comp(p, q), a) == app(q, app(p, a)),
                eq(comp((), p), p),
                eq(comp(p, ()), p),
                eq(comp(p, inv(p)), ()),
                eq(comp(inv(p), p), ()),
                app(comp(p, inv(p)), a) == a,
            )
            return laws, app(p, a)

        expect = a
        for x, y in p:
            expect = y if expect == x else x if expect == y else expect
        return Op("group", ("group", p, q, r, a), call,
                  lambda out, tally: all(out[0]) and out[1] == expect,
                  size=len(p) + len(q) + len(r))

    # -- check_laws -----------------------------------------------------------

    def _laws(self, rng, i) -> Op:
        label, inst, gen, _ = self.instances[i % len(self.instances)]
        seed = rng.randrange(2**31)
        span = "nominal.check_laws.term" if label == "term" else "nominal.check_laws"

        def call(api):
            with api.span(span):
                return api.check_laws(inst, gen, trials=LAW_TRIALS, seed=seed)

        def check(report, tally):
            tally[span + ".trials"] += sum(r.trials for r in report.results)
            return (report.ok is True and len(report.results) == 7
                    and all(r.trials == LAW_TRIALS for r in report.results))

        return Op("laws", ("laws", label, seed), call, check)

    # -- freshness ------------------------------------------------------------

    def _fresh(self, rng, i) -> Op:
        label, inst, gen, support = self.nontrivial[i % len(self.nontrivial)]
        a = rng.choice(self.pool6)
        v = gen(rng)
        avoid = frozenset(support(v) | {a})
        expect = a not in support(v)

        def call(api):
            ws = api.fresh_many(avoid, WITNESSES)
            return (ws, api.fresh_dec(inst, a, v),
                    api.fresh_universal_probe(inst, a, v, frozenset(ws)))

        def check(out, tally):
            ws, dec, probe = out
            return (len(set(ws)) == WITNESSES and not set(ws) & avoid
                    and dec is expect and probe is expect)

        return Op("fresh", ("fresh", label, a, repr(v)), call, check,
                  equal=expect)

    # -- abstraction ----------------------------------------------------------

    def _abstraction(self, rng, i) -> Op:
        from nomset import Abstraction, Lam, Name

        t = self.term_gen(rng)
        a = rng.choice(self.pool6[:3])
        if rng.random() < 0.5:
            b = Name(rng.randrange(3, 9))  # absent from t, so renaming is a swap
            u = _rename(t, a, b)
        else:
            b = rng.choice(self.pool6[:3])
            u = self.term_gen(rng)
        expect = term_db(Lam(a, t)) == term_db(Lam(b, u))
        left, right = Abstraction(a, t), Abstraction(b, u)
        iterm = self.iterm
        return Op("abstraction", ("abs", repr(left), repr(right)),
                  lambda api: api.alpha_equiv_dec(iterm, left, right),
                  lambda out, tally: out is expect, equal=expect)

    # -- FCB ------------------------------------------------------------------

    def _fcb(self, rng, i) -> Op:
        from nomset import Abstraction, Lam

        iterm = self.iterm
        if i % 5 < 3:
            ab = Abstraction(rng.choice(self.pool6[:3]), self.term_gen(rng))
            f_lam = self.f_lam
            expect_db = term_db(Lam(ab.name, ab.term))

            def call(api):
                with api.span("suppfn.fcb_lift"):
                    return api.fcb_lift(iterm, f_lam).fn(ab)

            return Op("fcb", ("lift", repr(ab)), call,
                      lambda out, tally: term_db(out) == expect_db)
        good = i % 5 == 3
        f = self.f_lam if good else self.f_var
        seed = rng.randrange(2**31)
        gen = self.term_gen

        def call_check(api):
            with api.span("suppfn.fcb_lift"):
                return api.check_fcb(f, gen, trials=FCB_TRIALS, seed=seed)

        return Op("fcb", ("check_fcb", good, seed), call_check,
                  lambda out, tally: out is good)

    # -- alpha_rec ------------------------------------------------------------

    def _alpha_rec(self, rng, i) -> Op:
        t = _term(rng, self.pool6[:3], 12)
        rec = self.fv_rec
        expect = free_names(t)

        def call(api):
            with api.span("lam.alpha_rec"):
                return rec.fn(t)

        return Op("alpha_rec", ("alpha_rec", repr(t)), call,
                  lambda out, tally: out == expect)


def _term(rng: random.Random, pool, max_size: int):
    """A random term of at most ``max_size`` constructors."""
    from nomset import App, Lam, Var

    def build(budget):
        roll = rng.random()
        if budget <= 1 or roll < 0.35:
            return Var(rng.choice(pool))
        if roll < 0.65:
            return Lam(rng.choice(pool), build(budget - 1))
        left = rng.randrange(1, budget - 1) if budget > 2 else 1
        return App(build(left), build(budget - 1 - left))

    return build(max_size)


def _rename(t, a, b):
    """Every occurrence of ``a``, bound or free, becomes ``b``."""
    from nomset import App, Lam, Var

    if type(t) is Var:
        return Var(b) if t.name == a else t
    if type(t) is App:
        return App(_rename(t.fn, a, b), _rename(t.arg, a, b))
    return Lam(b if t.binder == a else t.binder, _rename(t.body, a, b))
