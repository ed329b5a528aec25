"""Exact sparse multivariate polynomials with a degree/weight bigrading.

Two variable families are supported:

  * family "a": coefficient variables a0, a1, a2, ... (indexed from 0),
  * family "L": lambda variables L1, L2, ... (indexed from 1).

Coefficients are exact rationals under one rule: an integral coefficient
is stored as a Python `int`, any other as a `fractions.Fraction` in lowest
terms, and zero coefficients are never stored.  The a-polynomials of the
certificate are integral, so `Fraction` arises only where a division makes
one (translation, umbral products, c_k, primitive parts and parsing).
`Poly.__init__` is the one place that sums coefficients: it takes any
stream of (monomial, coefficient) pairs, adds the coefficients of a
repeated monomial and keeps only the nonzero sums, so arithmetic hands
it unsummed pairs.  A dict that is already summed, with `ExponentVector`
keys and nonzero int values (and no index 0 in family "L"), is copied as
it is, after checks that run in C.
`terms()`, `to_json()` and `str()` list the terms in canonical order,
sorting them, except for a Poly built by `Poly._in_order`: the one
builder that calls it, `symfunc._expand_forms`, hands over its dict
already in that order, and the Poly keeps that dict, checked but not
copied, and reads it as it is.  Any Poly derived from
one, by arithmetic, substitution or a JSON round trip, is sorted again.
A Poly built by `Poly._over` from a {position: nonzero int} row over a
sequence of exponent vectors keeps a copy of that row as a memo of its
terms, and `row_over` hands a copy of it back to a caller that asks
with the same sequence; no other builder keeps a memo, so any Poly
derived from one carries none.
All values are immutable; every operation returns a new object.  The
memo only caches the terms, in another form, and never changes them.
`Poly.to_json` is the one writer of the JSON schema: `to_json_dict` is its
text parsed, and `from_json` reads it back.
`Record` is the base class of the package's value objects (partitions,
thresholds, certificates, reports), which declare their fields as
annotations; no module uses `@dataclass`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import itemgetter


class FamilyMismatchError(TypeError):
    """Raised when combining polynomials over different variable families."""


class BiDegreeError(ValueError):
    """Raised when a polynomial is not homogeneous-isobaric.

    Carries the two offending terms (as ExponentVector pairs) when the
    failure comes from mixed degree or mixed weight.
    """

    def __init__(self, message, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second


class Record:
    """Base of the package's value objects, in place of `@dataclass`.

    A subclass's fields are the names annotated in its own body, in order.
    It is built from them by position or by keyword, after which its
    `__post_init__`, if it has one, runs; it equals an instance of the
    same class with equal fields and reads back as `Name(field=value, ...)`.
    `class Name(Record, frozen=True)` also hashes by its fields and raises
    `AttributeError` on assignment; any other subclass has no hash.
    (The decorator's module imports `inspect` and `ast`, and it writes each
    class's methods with `exec`: more than half of the package's import
    time went to it.)
    """

    _fields = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse_assignment
        else:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        names = self._fields
        try:
            values = args + tuple(map(kwargs.pop, names[len(args):]))
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__}() missing field {missing}") from None
        if len(values) > len(names) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        self.__dict__.update(zip(names, values))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _refuse_assignment(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


class ExponentVector(tuple):
    """Finite map from variable index to a positive exponent.

    The vector is the tuple of its (index, exponent) pairs in increasing
    index; zero exponents are dropped on construction.  So it equals and
    hashes as that plain tuple, and has `len`, iteration and tuple order:
    `<` is tuple order.  `lex_less` is plain lexicographic order on the
    exponent sequence read in increasing variable index (missing indices
    count as exponent 0).
    """

    __slots__ = ()

    def __new__(cls, entries=()):
        items = []
        for i, e in sorted(dict(entries).items()):
            if e == 0:
                continue
            if i < 0 or e < 0 or int(i) != i or int(e) != e:
                raise ValueError(f"bad exponent entry {i}^{e}")
            items.append((int(i), int(e)))
        return tuple.__new__(cls, items)

    @property
    def entries(self):
        return tuple(self)

    def degree(self):
        return sum(e for _, e in self)

    def weight(self):
        """Sum of index*exponent; meaningful for a-variables."""
        return sum(i * e for i, e in self)

    def get(self, index):
        return dict(self).get(index, 0)

    def indices(self):
        return tuple(i for i, _ in self)

    def __mul__(self, other):
        merged = dict(self)
        for i, e in other:
            merged[i] = merged.get(i, 0) + e
        return ExponentVector._of(sorted(merged.items()))

    def lex_key(self):
        """Key whose tuple order is the `lex_less` order.

        The pairs (-i, e) run in increasing index i, so a vector with a
        positive exponent at an index that the other lacks sorts higher.
        """
        return tuple((-i, e) for i, e in self)

    def lex_less(self, other):
        """r < s iff r_k < s_k at the first index where they differ."""
        return self.lex_key() < other.lex_key()

    def as_tuple(self, length, first_index=0):
        out = [0] * length
        for i, e in self:
            pos = i - first_index
            if not 0 <= pos < length:
                raise ValueError(f"index {i} outside [{first_index}, {first_index + length})")
            out[pos] = e
        return tuple(out)

    def __repr__(self):
        return f"ExponentVector({dict(self)!r})"


# ExponentVector._of(pairs): the vector of pairs already sorted by index
# and positive, unchecked.  A partial of tuple.__new__ is one C call, where
# a classmethod would run a Python frame for every key a builder makes.
ExponentVector._of = partial(tuple.__new__, ExponentVector)


def _canon_key(ev):
    # Graded order for printing/iteration: total degree first, then the
    # exponent of the lowest-indexed variable, descending.
    degree, flat = 0, []
    for i, e in ev:
        degree += e
        flat.append(i)
        flat.append(-e)
    return (-degree, tuple(flat))


_FAMILIES = ("a", "L")


class _Fragments(dict):
    """(index, exponent) -> its JSON member text '"index": exponent'."""

    def __missing__(self, pair):
        text = self[pair] = f'"{pair[0]}": {pair[1]}'
        return text


def _exact(c):
    """The coefficient rule: an integral value as an int, any other as a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


_FIRST_PAIR = itemgetter(0)


def _summed(family, terms):
    """Whether the dict `terms` is already a Poly's term dict: every key an
    `ExponentVector`, every value a nonzero int, and for family "L" no
    index 0.  Each check runs in C, over `map` and `filter`."""
    if not (
        {ExponentVector}.issuperset(map(type, terms))
        and {int}.issuperset(map(type, terms.values()))
        and all(terms.values())
    ):
        return False
    if family == "L":
        # a vector's pairs run in increasing index, so index 0 can only
        # come first, and the least first pair has the least index
        first = min(map(_FIRST_PAIR, filter(None, terms)), default=None)
        return first is None or first[0] != 0
    return True


class Poly:
    """Sparse polynomial over one variable family with exact rational coefficients."""

    __slots__ = ("family", "_terms", "_ordered", "_row")

    def __init__(self, family, terms=()):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(terms) is dict and _summed(family, terms):
            collected = terms.copy()
        else:
            collected = {}
            for ev, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(ev, ExponentVector):
                    ev = ExponentVector(ev)
                if family == "L" and ev and ev[0][0] == 0:
                    raise ValueError("L-variables are indexed from 1")
                c = _exact(_exact(c) + collected.get(ev, 0))
                if c:
                    collected[ev] = c
                elif ev in collected:
                    del collected[ev]
        self._fill(family, collected)

    def _fill(self, family, terms, ordered=False, row=None):
        """Set the four slots, the one place any builder does; returns self."""
        self.family = family
        self._terms = terms
        self._ordered = ordered
        self._row = row
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, family):
        return cls(family)

    @classmethod
    def constant(cls, family, c):
        return cls(family, [(ExponentVector(), c)])

    @classmethod
    def variable(cls, family, index):
        return cls(family, [(ExponentVector({index: 1}), 1)])

    @classmethod
    def monomial(cls, family, ev, coeff=1):
        return cls(family, [(ev, coeff)])

    @classmethod
    def _in_order(cls, family, terms):
        """The Poly of a summed term dict whose keys already run in
        canonical order, which `terms()` then reads without a sort.  The
        dict is checked by `_summed` and kept, not copied: the caller
        hands it over and holds it no longer."""
        if family not in _FAMILIES or type(terms) is not dict or not _summed(family, terms):
            raise ValueError(f"not a summed {family!r} term dict")
        return object.__new__(cls)._fill(family, terms, ordered=True)

    @classmethod
    def _over(cls, family, exponents, row):
        """The sum of c times exponents[j] over the items (j, c) of the
        dict `row`.  When every j is an int, it must lie in
        range(len(exponents)), or IndexError is raised; when, too, every c
        is a nonzero int, the Poly keeps a copy of `row` as its memo over
        `exponents`, so a later change to `row` reaches neither the terms
        nor the memo.  The term dict is built here from `row`, one key per
        position (the exponent vectors are distinct), checked by `_summed`
        and kept.  Any other dict is summed by `Poly` as pairs and keeps no
        memo."""
        if {int}.issuperset(map(type, row)):
            if min(row, default=0) < 0:
                raise IndexError(f"negative position {min(row)}")
            terms = dict(zip(map(exponents.__getitem__, row), row.values()))
            if len(terms) == len(row) and _summed(family, terms):
                return object.__new__(cls)._fill(family, terms, row=(exponents, row.copy()))
        return cls(family, [(exponents[j], c) for j, c in row.items()])

    # -- inspection --------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def row_over(self, exponents):
        """A copy of the memo row of a Poly built by `_over` over this very
        sequence (compared by identity), or None."""
        memo = self._row
        if memo is not None and memo[0] is exponents:
            return memo[1].copy()
        return None

    def terms(self):
        """Terms in canonical (graded, then leading-variable) order."""
        if self._ordered:
            return list(self._terms.items())
        return [(ev, self._terms[ev]) for ev in sorted(self._terms, key=_canon_key)]

    def exponents(self):
        """Exponent vectors of the nonzero terms, in no particular order."""
        return self._terms.keys()

    def items(self):
        """(exponent vector, coefficient) of the nonzero terms, in no particular order."""
        return self._terms.items()

    def coefficient(self, ev):
        return self._terms.get(ev, 0)

    def __len__(self):
        return len(self._terms)

    def total_degree(self):
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(ev.degree() for ev in self._terms)

    def bidegree(self):
        """(degree, weight) of a homogeneous-isobaric a-polynomial."""
        if self.family != "a":
            raise FamilyMismatchError("bidegree is defined for a-polynomials")
        if not self._terms:
            raise BiDegreeError("zero polynomial has no bidegree")
        it = iter(self._terms)
        first = next(it)
        n, g = first.degree(), first.weight()
        for ev in it:
            if ev.degree() != n:
                raise BiDegreeError(
                    f"mixed degree {n} vs {ev.degree()}", first, ev
                )
            if ev.weight() != g:
                raise BiDegreeError(
                    f"mixed weight {g} vs {ev.weight()}", first, ev
                )
        return n, g

    def is_integral(self):
        return all(c.denominator == 1 for c in self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.family != other.family:
            raise FamilyMismatchError(
                f"family {self.family!r} vs {other.family!r}"
            )

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.family, other)
        self._check(other)
        return Poly(self.family, chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.family, {ev: -c for ev, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.family, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        return Poly(
            self.family,
            (
                (ev1 * ev2, c1 * c2)
                for ev1, c1 in self._terms.items()
                for ev2, c2 in other._terms.items()
            ),
        )

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = _exact(c)
        if not c:
            return Poly.zero(self.family)
        return Poly(self.family, {ev: c * k for ev, k in self._terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.family, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.family == other.family
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.family, frozenset(self._terms.items())))

    def substitute(self, index, replacement):
        """Exact substitution of one variable by a polynomial (or constant)."""
        if not isinstance(replacement, Poly):
            replacement = Poly.constant(self.family, replacement)
        self._check(replacement)
        out = []
        powers = {0: Poly.constant(self.family, 1)}
        for ev, c in self._terms.items():
            e = ev.get(index)
            rest = ExponentVector._of(pair for pair in ev if pair[0] != index)
            if e not in powers:
                p = powers[max(powers)]
                for k in range(max(powers) + 1, e + 1):
                    p = p * replacement
                    powers[k] = p
            out.extend((pev * rest, pc * c) for pev, pc in powers[e]._terms.items())
        return Poly(self.family, out)

    # -- normalization -----------------------------------------------------

    def primitive_part(self):
        """Divide by the content (gcd of coefficients), leading sign positive."""
        if not self._terms:
            return self
        from math import gcd

        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        content = Fraction(num, den)
        lead = self._terms[min(self._terms, key=_canon_key)]
        if lead < 0:
            content = -content
        return self.scale(1 / content)

    # -- serialization -----------------------------------------------------

    def _var_name(self, index):
        return f"{self.family}{index}"

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for ev, c in self.terms():
            factors = []
            if abs(c) != 1 or not ev:
                factors.append(str(abs(c)))
            for i, e in ev:
                factors.append(
                    self._var_name(i) if e == 1 else f"{self._var_name(i)}^{e}"
                )
            term = "*".join(factors)
            if not chunks:
                chunks.append(term if c > 0 else f"-{term}")
            else:
                chunks.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(chunks)

    __repr__ = __str__

    def to_json(self):
        """The JSON text {"family": f, "terms": [{"c": "3/4", "e": {"1": 2}}, ...]}.

        The one writer of the schema: the terms in canonical order, each
        coefficient as its string and each exponent vector as an object
        from index to exponent, spaced as `json.dumps` spaces them.  Every
        "i": e fragment is formatted once per call and reused.
        """
        fragment = _Fragments().__getitem__
        terms = self._terms.items() if self._ordered else self.terms()
        body = ", ".join(
            [f'{{"c": "{c}", "e": {{{", ".join(map(fragment, ev))}}}}}' for ev, c in terms]
        )
        return f'{{"family": "{self.family}", "terms": [{body}]}}'

    def to_json_dict(self):
        """The parsed `to_json` text, so the schema is written in one place."""
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data):
        terms = []
        for t in data["terms"]:
            ev = ExponentVector({int(i): e for i, e in t["e"].items()})
            terms.append((ev, Fraction(t["c"])))
        return cls(data["family"], terms)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def parse(cls, text, family=None):
        """Parse the text encoding, e.g. "3*a0^2*a3 - 3*a0*a1*a2 + a1^3"."""
        text = text.strip()
        if text == "0":
            return cls.zero(family or "a")
        pieces = []
        sign = 1
        buf = ""
        depth_guard = text.replace(" ", "")
        # split on top-level + and - (no parentheses in this encoding)
        for ch in depth_guard:
            if ch in "+-" and buf:
                pieces.append((sign, buf))
                sign = 1 if ch == "+" else -1
                buf = ""
            elif ch in "+-" and not buf:
                sign = sign if ch == "+" else -sign
            else:
                buf += ch
        pieces.append((sign, buf))
        terms = []
        fam = family
        for sign, chunk in pieces:
            coeff = Fraction(sign)
            exps = {}
            for factor in chunk.split("*"):
                m = re.fullmatch(r"([aL])(\d+)(?:\^(\d+))?", factor)
                if m:
                    f, idx, e = m.group(1), int(m.group(2)), int(m.group(3) or 1)
                    if fam is None:
                        fam = f
                    elif fam != f:
                        raise FamilyMismatchError(f"mixed families in {text!r}")
                    exps[idx] = exps.get(idx, 0) + e
                else:
                    coeff *= Fraction(factor)
            terms.append((ExponentVector(exps), coeff))
        if fam is None:
            fam = family or "a"
        return cls(fam, terms)
