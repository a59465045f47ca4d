"""Golden law reports: ``str(check_laws(inst, gen, seed=s))`` for seeds 0-4
pinned by SHA-256 digest, on the nine stock instances of the law sweep and
on three broken ones whose counterexamples hold a term, a ``Left`` and an
``Abstraction``.  A change to any instance, generator, law or printer that
alters one byte of a report fails here.

After a deliberate change of output, ``PYTHONPATH=src python -m
tests.test_law_reports`` prints the digests anew."""

import hashlib
import operator

import pytest

from nomset.abstraction import instance_abstraction
from nomset.lam import fv, instance_term
from nomset.nominal import (
    Left, NominalInstance, check_laws, instance_list, instance_name, instance_nameset,
    instance_option, instance_pair, instance_sum, instance_trivial,
)
from nomset.samplers import (
    abstraction_gen, bool_gen, name_gen, nameset_gen, option_gen, pair_gen, sum_gen,
    term_gen, tuple_gen,
)

SEEDS = range(5)


def instances():
    """(label, instance, generator): the law sweep's nine, then three broken."""
    iname, ibool, iterm = instance_name(), instance_trivial(), instance_term()
    isum, iabs = instance_sum(iname, ibool), instance_abstraction(iname)
    names, sums = name_gen(), sum_gen(name_gen(), bool_gen())
    abstractions = abstraction_gen(name_gen(), name_gen())
    return [
        ("name", iname, names),
        ("bool", ibool, bool_gen()),
        ("pair", instance_pair(iname, iname), pair_gen(names, names)),
        ("sum", isum, sums),
        ("option", instance_option(iname), option_gen(names)),
        ("list", instance_list(iname), tuple_gen(names)),
        ("nameset", instance_nameset(), nameset_gen()),
        ("abstraction", iabs, abstractions),
        ("term", iterm, term_gen()),
        # Raw equality with the free-variable support: renaming a binder
        # changes the raw term but fixes its support.
        ("broken-term", NominalInstance(operator.eq, iterm.act, fv), term_gen()),
        # A Left value claims no support.
        ("broken-sum", NominalInstance(
            isum.equiv, isum.act,
            lambda v: frozenset() if isinstance(v, Left) else isum.support(v)), sums),
        # Raw equality on abstractions: alpha-variants differ.
        ("broken-abstraction", NominalInstance(operator.eq, iabs.act, iabs.support),
         abstractions),
    ]


def digest(inst, gen, seed) -> str:
    return hashlib.sha256(str(check_laws(inst, gen, seed=seed)).encode()).hexdigest()


# A passing report prints no value, so the nine stock instances share the
# digest of seven passing laws.
OK = "f31c7300424d9ae936aad8daf7088155d31b496eae9230785439d290a42206b9"
GOLDEN = {
    **{label: (OK,) * 5 for label in (
        "name", "bool", "pair", "sum", "option", "list", "nameset", "abstraction", "term")},
    "broken-term": (
        "4dcc94894164b8ec174358ed5d72e5cf2d31f8fefa1aea3863cb0b8e07aef81b",
        "6b910f00048584bbf28a4de6532aad53071ffbc713ca7fbcbdc911416460ef60",
        "c0da1d86803b4a803e69390201d731ad454c37137557db2626d8efa4edf24688",
        "2dd014154857b24f2149b6ccb70fa320f310048dd2e9f30cc22862d1b6bfeeed",
        "4ce1037eff9651d92e7a7c81f28129534e70e9dac6d528d97515a78fe3813f11",
    ),
    "broken-sum": (
        "12dc427f0001fab173fd28ec9c5b8b0877ebd3f8310308df6cd7d506fa9fe49c",
        "0eeef5c84e5cd6961c9a74e767839bbdd788a0e99ad1eddbf745eff74653b73a",
        "e1870a341759517afa202ed9fe5805fe1c0a56df07ed3c8ed675fc0cf2b9f326",
        "91bce54cabf59389bfeda873f034822c68d14af2b58fe4a3826f3835b22a0cba",
        "446e426c6271e90a07063eff520e8019fbd37952aca3ef64c0da012bb6ff3730",
    ),
    "broken-abstraction": (
        "bea5ba32b0fe2665d9fc54a37ff3b5b8bcdfae3ab66ca2d583adc612329d16a3",
        "83d5f8c19d70ff73d52d8cf3114798b2c9299a96b3529324712bf22bc8875247",
        "bde8318ff6ccc2ceb8b8991399bab97c84a9dea3f346b605ceb9ed31c60b07c3",
        "5a167fdfe5265fd54ea25f53afb86b0b4445e40d0fc3319637eb7b0300a5332d",
        "c6e9fc5e63cda5d2ac84774d798b6d5b10b1a415676df3a19416cc78577a5bf3",
    ),
}


@pytest.mark.parametrize("label,inst,gen", instances(), ids=[i[0] for i in instances()])
def test_law_report_is_unchanged(label, inst, gen):
    assert tuple(digest(inst, gen, s) for s in SEEDS) == GOLDEN[label]


def test_broken_reports_hold_a_term_a_left_and_an_abstraction():
    kinds = {label: {type(v).__name__ for r in check_laws(inst, gen).failures()
                     for v in r.counterexample}
             for label, inst, gen in instances()[9:]}
    assert "Lam" in kinds["broken-term"] and "Left" in kinds["broken-sum"]
    assert "Abstraction" in kinds["broken-abstraction"]


if __name__ == "__main__":
    for label, inst, gen in instances():
        print(f'    "{label}": (')
        for s in SEEDS:
            print(f'        "{digest(inst, gen, s)}",')
        print("    ),")
