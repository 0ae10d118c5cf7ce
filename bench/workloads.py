"""Seeded input streams, the timed operation, and output checks per workload.

A workload's stream is cut into blocks.  Every block has the same fixed list
of slots (variable count, socle degree, generator shape, coefficient kind),
so each block carries the workload's exact size mix; only the coefficients
and supports change from block to block and seed to seed.  Item k of block b
is drawn from its own `random.Random(f"{workload}:{seed}:{b}:{k}")`, so a
stream is reproducible and does not depend on how far a run gets.

Inputs are built here as plain term dictionaries with the standard library
only; they become `apolar` objects (or CLI strings) outside the timed
region.  Checks and digests also run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import apolar
import apolar.cli

Terms = dict[tuple[int, ...], Fraction]


@lru_cache(maxsize=None)
def _exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    if n == 1:
        return ((d,),)
    return tuple((a,) + rest for a in range(d, -1, -1) for rest in _exponents(n - 1, d - a))


def _coeff(rng: random.Random, frac: bool) -> Fraction:
    c = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    return Fraction(c, rng.randint(2, 5)) if frac else Fraction(c)


def _form(rng, n: int, d: int, terms: int | None, frac: bool, avoid=()) -> Terms:
    """Random form of degree d: dense when `terms` is None, else that many terms."""
    exps = [e for e in _exponents(n, d) if e not in avoid]
    if terms is not None:
        exps = rng.sample(exps, min(terms, len(exps)))
    return {e: _coeff(rng, frac) for e in exps}


def _tails(rng, n: int, s: int, depth: int, lo: int, hi: int, frac: bool) -> Terms:
    """Components in degrees s-1 down to max(s-depth, 1), each with lo..hi terms."""
    out: Terms = {}
    for d in range(s - 1, max(s - depth, 1) - 1, -1):
        out.update(_form(rng, n, d, rng.randint(lo, hi), frac))
    return out


@dataclass(frozen=True)
class Item:
    """One generated presentation: `gens` are term dictionaries, top degree first."""

    index: int
    num_vars: int
    socle_degree: int
    label: str
    gens: tuple[Terms, ...]

    def presentation(self) -> apolar.AlgebraPresentation:
        n = self.num_vars
        return apolar.AlgebraPresentation(
            n, tuple(apolar.DualPolynomial(n, g) for g in self.gens)
        )


def _text(terms: Terms) -> str:
    """Render terms in the CLI grammar, e.g. `3/4*y1^2*y2 - y3`."""
    pieces = []
    for e in sorted(terms, key=lambda e: (-sum(e), tuple(-a for a in e))):
        c = terms[e]
        factors = [f"y{k + 1}" + (f"^{a}" if a > 1 else "") for k, a in enumerate(e) if a]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        pieces.append(("-" if c < 0 else "+") + " " + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """A block layout plus the operation, its digest and its seed-free checks."""

    name: str
    slots: tuple
    digest_blocks: int
    trace_ops: int  # operations in the traced run, from the start of the stream

    def item(self, rng: random.Random, index: int, slot) -> Item:
        raise NotImplementedError

    def block(self, seed: int, block: int) -> list[Item]:
        size = len(self.slots)
        return [
            self.item(random.Random(f"{self.name}:{seed}:{block}:{k}"), block * size + k, slot)
            for k, slot in enumerate(self.slots)
        ]

    def warmup(self) -> Item:
        """A fixed, seed-independent input run once during set-up."""
        return self.item(random.Random(f"{self.name}:warmup"), -1, self.slots[0])

    def prepare(self, item: Item):
        """The argument of the timed call, built outside the timed region."""
        return item.presentation()

    def run(self, arg):
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def check(self, item: Item, arg, out) -> str | None:
        """Seed-independent check of one output; a message when it fails."""
        raise NotImplementedError

    def outcome(self, out) -> dict:
        """Outcome labels of one output, for the run's outcome mix.

        A label `kind:value` is summarised as the number of distinct values.
        """
        raise NotImplementedError


class Graded(Workload):
    """`canonically_graded(pres)`: automorphism, staircase and generator reduction.

    Slot kinds: `dense1`/`sparse1` are one generator of degree s with tails in
    every lower degree; `dense2`/`sparse2` add a second generator of degree
    s-1 (the mixed-degree branch).  Sparse leading forms have 3-8 terms and
    dense tails, which puts about a third of them into OBSTRUCTED_RESTRICTED.
    One slot in twenty is the (4, 5) headline size.

    The slot counts keep both reported percentiles inside a cluster of
    similar inputs, never on a gap between clusters, so that the share of
    obstructed inputs in a run hardly moves them: the median falls among
    the dense one-generator (3, 5) and (4, 4) slots, and the 90th
    percentile falls among the three (3, 5) two-generator dense slots.
    """

    name = "graded"
    slots = (
        (3, 5, "dense1"), (3, 4, "sparse1"), (3, 5, "dense2"), (4, 4, "sparse1"),
        (3, 5, "sparse1"), (4, 4, "dense1"), (3, 4, "sparse2"), (3, 5, "dense1"),
        (3, 5, "dense2"), (3, 4, "sparse1"), (4, 5, "dense1"), (4, 4, "sparse2"),
        (3, 5, "dense1"), (4, 4, "sparse1"), (3, 4, "sparse2"), (3, 5, "dense2"),
        (4, 4, "dense1"), (3, 5, "sparse1"), (3, 5, "dense1"), (3, 4, "sparse1"),
    )
    digest_blocks = 16
    trace_ops = 20

    def item(self, rng, index, slot):
        n, s, kind = slot
        sparse = kind.startswith("sparse")
        gens = []
        for d in (s, s - 1)[: int(kind[-1])]:
            top = _form(rng, n, d, rng.randint(3, 8) if sparse else None, False)
            lo, hi = (8, 15) if sparse else (2, 4)
            gens.append({**top, **_tails(rng, n, d, d - 1, lo, hi, False)})
        return Item(index, n, s, kind, tuple(gens))

    def run(self, pres):
        return apolar.canonically_graded(pres)

    def digest(self, report):
        return digest(json.dumps(report.as_document()))

    def check(self, item, pres, report):
        Outcome = apolar.GradingOutcome
        tops = tuple(g.top_component() for g in report.final_generators)
        if tops != pres.leading_forms():
            return "leading forms moved"
        if report.outcome is Outcome.GRADED:
            if not all(g.is_homogeneous() for g in report.final_generators):
                return "GRADED with inhomogeneous generators"
            if apolar.replay_certificate(pres, report) != report.final_generators:
                return "certificate does not replay"
        elif report.outcome is Outcome.OBSTRUCTED_RESTRICTED:
            ob = report.obstruction
            if ob.matrix.solve([-t for t in ob.target]) is not None:
                return "obstructed step is solvable"
            if ob.rank != ob.matrix.rank():
                return "obstruction rank differs from the matrix rank"
        return None

    def outcome(self, report):
        return {report.outcome.value: 1}


class CompressedCli(Workload):
    """`apolar compressed ... --format structured`, in process, stdout captured.

    Slots run over (n, s, generator count) and integer or p/q coefficients.
    Integer slots use equal-degree generators, p/q slots put every later
    generator one degree lower.  Half the slots have sparse leading forms
    with disjoint supports, which keeps the leading forms independent and
    makes some verdicts non-compressed.
    """

    name = "compressed_cli"
    shapes = ((3, 3, 3), (3, 4, 1), (3, 4, 2), (2, 6, 2), (4, 3, 2), (2, 7, 1))
    slots = tuple(product(shapes, (False, True)))
    digest_blocks = 24
    trace_ops = 12

    def item(self, rng, index, slot):
        (n, s, count), frac = slot
        sparse = (self.shapes.index((n, s, count)) + frac) % 2 == 1
        gens, used = [], set()
        for k in range(count):
            d = s if k == 0 or not frac else s - 1
            if sparse:
                terms = min(rng.randint(2, 4), len(_exponents(n, d)) // count)
                top = _form(rng, n, d, terms, frac, used)
            else:
                top = _form(rng, n, d, None, frac)
            used.update(top)
            gens.append({**top, **_tails(rng, n, d, d - 1, 1, 3, frac)})
        kind = ("sparse" if sparse else "dense") + ("-pq" if frac else "-int")
        return Item(index, n, s, kind, tuple(gens))

    def prepare(self, item):
        return ["compressed", "-n", str(item.num_vars), *map(_text, item.gens),
                "--format", "structured"]

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = apolar.cli.main(argv)
        return code, buf.getvalue()

    def digest(self, out):
        return digest(out[1])

    def check(self, item, argv, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        if json.dumps(doc, indent=2) + "\n" != text:
            return "re-serialised output differs"
        hf, E = doc["hilbert_function"], doc["socle_type"]
        if len(hf) != item.socle_degree + 1 or hf[0] != 1:
            return "Hilbert function has the wrong shape"
        maximal = list(apolar.compressed_hilbert_function(item.num_vars, item.socle_degree, E))
        if doc["compressed_hilbert_function"] != maximal:
            return "compressed Hilbert function differs from the formula"
        if doc["is_compressed"] != (hf == maximal):
            return "is_compressed disagrees with HF == compressed HF"
        if E[-1] != hf[-1]:
            return "e_s differs from h_s"
        return None

    def outcome(self, out):
        doc = json.loads(out[1])
        verdict = "compressed" if doc["is_compressed"] else "not_compressed"
        return {verdict: 1, "hf:" + repr(doc["hilbert_function"]): 1,
                "socle_type:" + repr(doc["socle_type"]): 1}


class Hilbert(Workload):
    """`hilbert_function(pres)` over (n, s, generator count, tail depth).

    A second generator has degree s-1, so leading forms are independent.
    """

    name = "hilbert"
    shapes = ((3, 5, 1, 0), (3, 5, 1, 4), (3, 5, 2, 3), (4, 4, 1, 3), (4, 4, 2, 2),
              (5, 3, 1, 2), (2, 8, 1, 6))
    slots = tuple(product(shapes, (False, True)))
    digest_blocks = 80
    trace_ops = 28

    def item(self, rng, index, slot):
        (n, s, count, depth), frac = slot
        gens = []
        for d in (s, s - 1)[:count]:
            top = _form(rng, n, d, None, frac)
            gens.append({**top, **_tails(rng, n, d, depth, 1, 4, frac)})
        kind = f"tail{depth}" + ("-pq" if frac else "-int")
        return Item(index, n, s, kind, tuple(gens))

    def run(self, pres):
        return apolar.hilbert_function(pres)

    def digest(self, hf):
        return digest(repr(tuple(hf)))

    def check(self, item, pres, hf):
        if len(hf) != item.socle_degree + 1 or hf[0] != 1:
            return "Hilbert function has the wrong shape"
        gens = pres.generators
        if len(gens) == 1 and gens[0].is_homogeneous():
            if hf != apolar.hilbert_function_of_form(gens[0]):
                return "differs from hilbert_function_of_form"
        return None

    def outcome(self, hf):
        return {"hf:" + repr(tuple(hf)): 1}


WORKLOADS = {w.name: w for w in (Graded(), CompressedCli(), Hilbert())}
