"""Seeded request mix for ``serve-mix``.

Usage::

    python perfbench/inputs.py --seed N --requests N --rate R --out FILE

The population is fixed: one render of every C/C++ template of each
flavor (acc and omp), negative-probed with the prober's default seed,
so about a third of the files fail to compile and take the early exit.
Only the traffic drawn from it depends on ``--seed``:

* arrival times: ``--requests`` Poisson arrivals at ``--rate`` per
  second, conditioned on their count (uniform over requests/rate
  seconds), so each seed offers the same load;
* which requests repeat an earlier one: exactly :data:`REPEAT_SHARE`
  of them, each re-sending a request due at least
  :data:`REPEAT_MIN_AGE` seconds before it, so its sources were
  already served;
* the flavor of each fresh request: exactly :data:`ACC_SHARE` acc,
  the rest omp.  The heavy programs of the population (the
  ``matmul_collapse`` renders, 0.2-0.45 s each to validate on a
  2-CPU host, against a 12 ms median)
  are two acc files and one omp file; at this share about 11% of the
  requests carry an acc one, so p95 falls inside that cluster instead
  of on its lower edge, where a request or two more or less would flip
  it between clusters;
* its size, 1 to 8 files, and which files: both dealt from shuffled
  decks (of the sizes, of the flavor's population), so every size and
  every file comes up about equally often and the few slow programs
  weigh the same in every run.

A fresh request renames each file it carries with the number of times
that file was dealt before (``saxpy_0003.c`` becomes ``saxpy_0003-2.c``),
so its sources are new to every cache, and the names stay within
:data:`VARIANTS` renames of each population file: ``reference.py``
precomputes the verdict of every one.  A repeat re-sends an earlier
request unchanged.
"""

from __future__ import annotations

import argparse
import json
import random

LANGUAGES = ("c", "cpp")
FLAVORS = ("acc", "omp")
ACC_SHARE = 2 / 3
MAX_FILES = 8
REPEAT_SHARE = 0.25
REPEAT_MIN_AGE = 2.0
#: renames per population file that the reference verdicts cover; the
#: decks deal an acc file at most 11 times in 200 requests, 15 in 280
#: (``--seconds 70``)
VARIANTS = 16


def population() -> dict[str, list]:
    from repro.corpus.generator import CorpusGenerator
    from repro.corpus.suite import TestSuite
    from repro.corpus.templates import templates_for
    from repro.probing.prober import NegativeProber

    out = {}
    for flavor in FLAVORS:
        count = sum(len(templates_for(flavor, lang)) for lang in LANGUAGES)
        files = CorpusGenerator(validate=False).generate(flavor, count, languages=LANGUAGES)
        out[flavor] = list(NegativeProber().probe(TestSuite(flavor, flavor, files)))
    return out


def variant_name(name: str, k: int) -> str:
    stem, dot, ext = name.rpartition(".")
    return f"{stem}-{k}.{ext}"


def variants(pool: dict[str, list]):
    """Every ``(flavor, name, source)`` a schedule can send."""
    for flavor, tests in pool.items():
        for test in tests:
            for k in range(VARIANTS):
                yield flavor, variant_name(test.name, k), test.source


def schedule(seed: int, requests: int, rate: float, pool: dict[str, list]) -> list[dict]:
    rng = random.Random(f"serve-mix:{seed}")
    # Poisson arrivals conditioned on their count: uniform due times over
    # requests/rate seconds, so every seed offers the same load
    dues = sorted(rng.uniform(0.0, requests / rate) for _ in range(requests))
    eligible = [i for i, due in enumerate(dues) if due >= dues[0] + REPEAT_MIN_AGE]
    repeats = set(rng.sample(eligible, round(REPEAT_SHARE * requests)))
    fresh = requests - len(repeats)
    acc = round(ACC_SHARE * fresh)
    flavors = ["acc"] * acc + ["omp"] * (fresh - acc)
    rng.shuffle(flavors)
    sizes = list(range(1, MAX_FILES + 1))
    decks: dict[str, list] = {name: [] for name in (*FLAVORS, "sizes")}

    def deal(deck, cards):
        # a shuffled deck: every card comes up equally often
        if not decks[deck]:
            decks[deck] = list(cards)
            rng.shuffle(decks[deck])
        return decks[deck].pop()

    dealt: dict[str, int] = {}

    def rename(test) -> str:
        k = dealt.get(test.name, 0)
        if k >= VARIANTS:
            raise ValueError(f"{test.name} dealt more than {VARIANTS} times")
        dealt[test.name] = k + 1
        return variant_name(test.name, k)

    out: list[dict] = []
    for index, due in enumerate(dues):
        if index in repeats:
            served = [r for r in out if r["repeat_of"] is None and r["due"] <= due - REPEAT_MIN_AGE]
            origin = rng.choice(served)
            out.append({**origin, "index": index, "due": due, "repeat_of": origin["index"]})
            continue
        flavor = flavors.pop()
        size = deal("sizes", sizes)
        picks = [deal(flavor, pool[flavor]) for _ in range(size)]
        out.append({
            "index": index,
            "due": due,
            "flavor": flavor,
            "files": {rename(test): test.source for test in picks},
            "repeat_of": None,
        })
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    plan = schedule(args.seed, args.requests, args.rate, population())
    with open(args.out, "w") as fh:
        json.dump(plan, fh)


if __name__ == "__main__":
    main()
