"""Seeded corpora for the four benchmark workloads.

A workload is a list of strata.  A stratum fixes what sets the cost of a call
(word length, twist power and tail), and its variants differ only in the
random letters or in a small jitter of the twist power.  One round of a
corpus makes a fixed number of calls per stratum (one unless ``counts`` says
otherwise), in seeded order, and each stratum cycles through its variants in
a seeded order.  Every run therefore costs about the same whatever the seed,
which keeps the run-to-run spread small, while different seeds still give
different corpora.
The calls per round are chosen so that the median call of a run lies inside
one stratum and not in the gap between two.

A variant is generated from its own name alone, never from the run's seed, so
the golden output digest recorded once per (stratum, variant) pair checks the
corpus of every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

LETTERS = ("x", "y", "x^-1", "y^-1")
POSITIVE_LETTERS = ("x", "y")
# The letter that would cancel each letter under free reduction.
CANCELS = {"x": "x^-1", "x^-1": "x", "y": "y^-1", "y^-1": "y"}


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` call: its words and their size parameters.

    ``key`` names the (stratum, variant) pair, which is also the key of the
    call's golden digest.  ``sizes`` holds each word's size parameter (its
    length L, or |d| on twist_powers) for the complexity-slope fits.
    """

    key: str
    stratum: int
    words: tuple[str, ...]
    sizes: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    """A command with fixed flags, applied to generated words.

    ``command`` is ``analyze`` (one word per call) or ``batch`` (one word
    file per call).  ``make`` builds a variant's words and sizes from the
    stratum and a generator seeded by the variant's name.  ``counts`` gives
    the calls per round of each stratum (one each by default).
    ``round_seconds`` is about how long one round takes at the seed commit
    on one 2.1 GHz Xeon vCPU with Python 3.11, on a host busy enough to run
    it at half speed, so that a run stays near ``--seconds`` even then.
    """

    name: str
    command: str
    flags: tuple[str, ...]
    strata: tuple
    make: Callable[[object, random.Random], tuple[list[str], list[int]]]
    round_seconds: float
    variants: int = 8
    counts: tuple[int, ...] = ()

    def call(self, stratum: int, variant: int) -> Call:
        key = f"{self.name}/{stratum}/{variant}"
        words, sizes = self.make(self.strata[stratum], random.Random(key))
        return Call(key, stratum, tuple(words), tuple(sizes))

    def pool(self) -> Iterator[Call]:
        """Every (stratum, variant) call: the set the goldens cover."""
        for stratum in range(len(self.strata)):
            for variant in range(self.variants):
                yield self.call(stratum, variant)

    @property
    def per_round(self) -> int:
        """Calls per round."""
        return sum(self.counts) or len(self.strata)

    def rounds_for(self, seconds: float) -> int:
        """The number of rounds that fill ``seconds`` at the seed commit, and
        at least two.  A run always makes this many rounds, so every commit
        measures the same calls and its percentiles stay comparable."""
        return max(2, round(seconds / self.round_seconds))

    def corpus(self, seed: int, rounds: int) -> list[Call]:
        """The seed's first ``rounds`` rounds, in call order.

        Each stratum cycles through its variants in a seeded order, so a run
        uses every variant about equally often: random words of one length
        differ in cost by a quarter or more, and a free choice per call
        would make that a difference between seeds."""
        rng = random.Random(f"{self.name}/seed/{seed}")
        counts = self.counts or (1,) * len(self.strata)
        cycles = [rng.sample(range(self.variants), self.variants)
                  for _ in self.strata]
        made = [0] * len(self.strata)
        cache: dict[tuple[int, int], Call] = {}
        calls = []
        for _ in range(rounds):
            order = [stratum for stratum, count in enumerate(counts)
                     for _ in range(count)]
            rng.shuffle(order)
            for stratum in order:
                cycle = cycles[stratum]
                pick = (stratum, cycle[made[stratum] % len(cycle)])
                made[stratum] += 1
                if pick not in cache:
                    cache[pick] = self.call(*pick)
                calls.append(cache[pick])
        return calls


def _letters(rng: random.Random, alphabet, length: int) -> str:
    return " ".join(rng.choice(alphabet) for _ in range(length))


def _long_word(stratum, rng):
    length, alphabet = stratum
    return [_letters(rng, alphabet, length)], [length]


def _twist_word(stratum, rng):
    """``h^d`` and a constant-size tail.  d is jittered by at most 2% and
    keeps its parity, so the cost and the branches taken stay set by the
    stratum."""
    size, tail, sign = stratum
    d = sign * (size + 2 * rng.randrange(size // 100 + 1))
    return [f"h^{d} {tail}"], [abs(d)]


def _short_file(count, rng):
    lengths = [rng.randint(1, 40) for _ in range(count)]
    return [_letters(rng, LETTERS, n) for n in lengths], lengths


def _diagram(length, rng):
    """A freely reduced diagram that uses both generator columns, so that the
    Seifert matrix has exactly ``length - 2`` rows.  Free reduction leaves
    about half of a uniform random word, so 30-80 reduced letters stand for
    random diagrams of 60-160 letters."""
    while True:
        letters = [rng.choice(LETTERS)]
        while len(letters) < length:
            letter = rng.choice(LETTERS)
            if letter != CANCELS[letters[-1]]:
                letters.append(letter)
        if {letter[0] for letter in letters} == {"x", "y"}:
            return [" ".join(letters)], [length]


# The three tail families of the normal form: hyperbolic, parabolic and
# elliptic.
HYPERBOLIC, PARABOLIC, ELLIPTIC = "x y^-3 x y^-1", "y^5", "x^-2 y^-1"

WORKLOADS = {
    workload.name: workload for workload in (
        # Lengths on a geometric grid; uniform and positive words alternate.
        Workload(
            "long_words", "analyze", ("--json",),
            tuple((round(2000 * 5 ** (i / 6)),
                   (LETTERS, POSITIVE_LETTERS)[i % 2]) for i in range(7)),
            _long_word, round_seconds=5.0, variants=4),
        # Each round makes six calls at |d| = 3000 between one at each end of
        # the range, so that the median and the tail call both fall among
        # many calls of one size.  The three tail families and both signs of
        # d appear.
        Workload(
            "twist_powers", "analyze", ("--json", "--torus-bundle"),
            ((1000, PARABOLIC, 1), (3000, ELLIPTIC, -1),
             (30000, HYPERBOLIC, 1)),
            _twist_word, round_seconds=4.6, counts=(1, 6, 1)),
        Workload(
            "short_batch", "batch", ("--json", "--torus-bundle"),
            (100,), _short_file, round_seconds=0.06, variants=128),
        Workload(
            "oracle_diagrams", "analyze", ("--json", "--oracle"),
            (30, 40, 50, 64, 80), _diagram, round_seconds=1.6),
    )
}
