"""Partitions, symmetric-function bases and transition matrices.

Everything here lives on the lambda side: monomial sums m_h, monomials in
the elementary symmetric functions e_i, the transition matrices between
the two bases, reduction modulo L1 + ... + Ln, and the distinguished
symmetric functions p_h and q_n together with leading exponents.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, deque
from functools import lru_cache
from itertools import accumulate, combinations, compress, count, permutations, product
from math import comb, log2, prod

from .polycore import ExponentVector, Poly, Record


class Partition(Record, frozen=True):
    """Weakly decreasing tuple of positive integers."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of(cls, parts):
        """The partition of a weakly decreasing tuple of positive parts;
        unchecked."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "parts", parts)
        return partition

    def weight(self):
        return sum(self.parts)

    def padded(self, length):
        if length < len(self.parts):
            raise ValueError("padding shorter than the partition")
        return self.parts + (0,) * (length - len(self.parts))

    def to_string(self, padded_length=None):
        parts = self.parts if padded_length is None else self.padded(padded_length)
        if not parts:
            return "0"
        return "+".join(str(p) for p in parts)

    def __str__(self):
        return self.to_string()

    def __len__(self):
        return len(self.parts)


def partitions(g, max_part, min_part=1):
    """Partitions of g with every part between min_part and max_part.

    Returned in reverse-lexicographic order (largest first); the empty
    partition for g = 0.
    """
    if g < 0:
        raise ValueError("negative weight")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), min_part - 1, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in rec(g, max_part)]


def partition_counts(max_part, min_part=1):
    """Yield, for w = 0, 1, 2, ..., the number of partitions of w with
    every part between min_part >= 1 and max_part.

    Counted bottom-up over the largest-part recursion of `partitions`: a
    partition of w with largest part f is f followed by a partition of
    w - f with parts at most f.  No partition is built, and only the
    counts of the last max_part weights are kept, so neither the memory
    nor the stack depth grows with w.  Caps above w count as cap w, so
    weight w costs min(w, max_part) steps.
    """
    # recent[-f][c - min_part]: partitions of w - f with parts in
    # [min_part, c], for c up to min(max_part, max(w - f, min_part)); a
    # larger cap counts as the last one
    recent = deque(maxlen=max_part)
    for w in count():
        counts, total = [], int(w == 0)
        for f in range(min_part, min(max_part, max(w, min_part)) + 1):
            if f <= w:
                below = recent[-f]
                total += below[min(f - min_part, len(below) - 1)]
            counts.append(total)
        yield total
        recent.append(counts)


@lru_cache(maxsize=None)
def partition_parts(g, max_parts):
    """The partitions of g with at most max_parts parts, each as the tuple
    of its weakly decreasing positive parts, reverse-lexicographic.

    Built once per (g, max_parts) and shared, hence a tuple.  Each
    partition after (g,) is the largest one below its predecessor: the
    rightmost part that can drop by one does, and the parts after it are
    refilled greedily with parts no larger, at most max_parts in all.
    """
    if g < 0:
        raise ValueError("negative weight")
    if not g:
        return ((),)
    if max_parts < 1:
        return ()
    found, parts = [], [g]
    while True:
        found.append(tuple(parts))
        # parts[i] drops to v, and rest, one more than the sum after it,
        # must fit in the max_parts - i - 1 places left, none above v
        rest, i = 0, len(parts)
        while True:
            i -= 1
            if i < 0:
                return tuple(found)
            v = parts[i] - 1
            rest += 1
            if v and rest <= v * (max_parts - i - 1):
                break
            rest += v
        q, r = divmod(rest, v)
        parts[i:] = [v] * (q + 1) + [r] * (r > 0)


@lru_cache(maxsize=None)
def partition_positions(g, max_parts):
    """The one {parts: position} map of `partition_parts(g, max_parts)`,
    built once per (g, max_parts) and shared: never changed."""
    return {parts: j for j, parts in enumerate(partition_parts(g, max_parts))}


@lru_cache(maxsize=None)
def partitions_at_most(g, max_parts):
    """The `Partition`s of `partition_parts(g, max_parts)`, in its order.

    Built once per (g, max_parts) and shared, hence a tuple.  The parts
    are weakly decreasing and positive by construction, so they are not
    checked again.
    """
    return tuple(map(Partition._of, partition_parts(g, max_parts)))


def e_indices(n, g):
    """All k = (k1,...,kn) with sum i*k_i = g, in the canonical order.

    Column j is read off the j-th partition row h of the transition
    matrices as k_j = h_j - h_{j+1}, so h_j = k_j + k_{j+1} + ... + k_n
    and the order is reverse-lexicographic on that induced partition.
    """
    out = []
    for h in partition_parts(g, n):
        padded = h + (0,) * (n + 1 - len(h))
        out.append(tuple(padded[j] - padded[j + 1] for j in range(n)))
    return out


def monomial_sum(h, n):
    """m_h(L1,...,Ln): the orbit sum of L1^h1 * ... * Ln^hn."""
    if isinstance(h, Partition):
        padded = h.padded(n)
    else:
        padded = tuple(h) + (0,) * (n - len(h))
        if len(padded) != n:
            raise ValueError("more parts than variables")
    terms = {}
    for perm in set(permutations(padded)):
        ev = ExponentVector({i + 1: e for i, e in enumerate(perm) if e})
        terms[ev] = 1
    return Poly("L", terms)


@lru_cache(maxsize=None)
def elementary(i, n):
    """The elementary symmetric polynomial e_i(L1,...,Ln)."""
    if i == 0:
        return Poly.constant("L", 1)
    if i > n:
        return Poly.zero("L")
    terms = {}
    for combo in combinations(range(1, n + 1), i):
        terms[ExponentVector({j: 1 for j in combo})] = 1
    return Poly("L", terms)


@lru_cache(maxsize=None)
def _e_monomial_cached(k, n):
    out = Poly.constant("L", 1)
    for i, ki in enumerate(k, start=1):
        if ki:
            out = out * elementary(i, n) ** ki
    return out


def e_monomial(k, n):
    """The product e_1^k1 * ... * e_n^kn, expanded in L1..Ln."""
    if len(k) > n:
        raise ValueError("index longer than the variable count")
    return _e_monomial_cached(tuple(k), n)


class TransitionMatrix(Record):
    """Exact integer change of basis between m_h and e-monomials.

    direction "beta": column k holds the expansion of e^k in the m-basis.
    In the canonical order beta is lower unitriangular.
    direction "alpha": the exact inverse of beta, built without it by
    the Pieri step read backwards; its column h expands m_h in the
    e-monomials, and the row paired with column index k carries the
    m-coefficients of the invariant attached to k.
    """

    rows: tuple  # Partition, as from partitions_at_most
    cols: list  # EIndex tuples
    entries: list  # list of list of int
    direction: str

    def to_json_dict(self):
        return {
            "direction": self.direction,
            "rows": [list(p.parts) for p in self.rows],
            "cols": [list(k) for k in self.cols],
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict())


def _pieri_table(n, g, i):
    """For each partition mu of g - i with at most n parts, in order, the
    expansion e_i * m_mu = sum c * m_h over the partitions h of g, as a
    dict {position of h: c}.

    By the Pieri rule (Macdonald, Symmetric Functions and Hall Polynomials,
    I.6), c counts the i-subsets S of the places of h with sort(h - 1_S) =
    mu, so each h is lowered once.  Returned with the positions of the mu,
    `partition_positions(g - i, n)`.
    """
    position = partition_positions(g - i, n)
    table = [{} for _ in position]
    for j, h in enumerate(partition_parts(g, n)):
        for S in combinations(range(len(h)), i):
            left = list(h)
            for s in S:
                left[s] -= 1
            expansion = table[position[tuple(sorted(filter(None, left), reverse=True))]]
            expansion[j] = expansion.get(j, 0) + 1
    return table, position


def _kept_rows(g, n, zeros):
    """The positions, in `partition_parts(g, n)`, of the rows whose e-index
    k begins with `zeros` zeros: every row for 0, and for 1 the k1 = 0 rows
    that carry the basis invariants.  k_j = h_j - h_(j+1), so those are the
    partitions h with h_1 = h_(zeros+1), a missing part counting as 0."""
    return [r for r, h in enumerate(partition_parts(g, n)) if h[zeros : zeros + 1] == h[:1]]


@lru_cache(maxsize=None)
def _entries(n, g, direction, zeros):
    """The rows of beta(n, g) or alpha(n, g) whose e-index begins with
    `zeros` zeros (`_kept_rows`), each over every column, built column by
    column from the same rows at the weights g - i and the Pieri tables of
    (n, g, i).  beta is built with every row, zeros = 0.

    Column j of either matrix belongs to the partition lam = rows[j]; with
    i = len(lam), its parent is the column lam - (1^i) of weight g - i.
    beta: e^k = e_i * e^(k - eps_i), so column j is the table applied to
    the parent column.  alpha: h = lam has e_i * m_(h - (1^i)) = m_h +
    sum c * m_mu over mu strictly later (asserted), and e_i * e^k raises
    the e-index partition by 1 in its first i places, so column j is the
    raised parent column minus sum c * (column mu), filled from the last
    column back.  Raising adds eps_i to k, so a kept row reads only the
    kept rows at g - i, and none when i <= zeros; the subtraction acts row
    by row.  Reads the smaller weights from this cache, so they must be
    filled first.  Each column is written into the rows as it is finished,
    so the matrix is held once.
    """
    if g == 0:
        return [[1]]
    rows = partition_parts(g, n)
    position = partition_positions(g, n)
    kept = _kept_rows(g, n, zeros)
    at = {r: t for t, r in enumerate(kept)}
    # above[j]: the number of kept rows above row j
    above = list(accumulate((r in at for r in range(len(rows))), initial=0))
    steps = {}
    for i in range(1, min(n, g) + 1):
        table, lower = _pieri_table(n, g, i)
        raised = [
            position[tuple(p + 1 for p in (mu + (0,) * i)[:i]) + mu[i:]] for mu in lower
        ]
        if i == n:
            # in n variables e_n * m_mu = m_(mu + 1^n): an n-part column of
            # alpha is its parent raised, which the a_0 quotient of
            # perpetua.verify_complement relies on
            for mu, expansion, p in zip(lower, table, raised):
                if expansion != {p: 1}:
                    raise AssertionError(
                        f"the ({n},{g}) Pieri expansion of e_{n} * m_mu at "
                        f"mu = {Partition(mu)} is not the single term m_(mu + 1^{n})"
                    )
        smaller, targets = [], []
        if i > zeros:
            smaller = _entries(n, g - i, direction, zeros)
            targets = [at[raised[r]] for r in _kept_rows(g - i, n, zeros)]
        steps[i] = table, lower, targets, smaller
    out = [[0] * len(rows) for _ in kept]
    for j in reversed(range(len(rows))):
        table, lower, targets, smaller = steps[len(rows[j])]
        parent = lower[tuple(p - 1 for p in rows[j] if p > 1)]
        col = [0] * len(kept)
        if direction == "beta":
            for b, expansion in zip((row[parent] for row in smaller), table):
                if b:
                    for h, c in expansion.items():
                        col[h] += b * c
        else:
            for t, row in zip(targets, smaller):
                col[t] = row[parent]
            expansion = table[parent]
            if expansion.get(j) != 1 or min(expansion) < j:
                raise AssertionError(
                    f"the ({n},{g}) Pieri step does not lead with m_h at h = {Partition(rows[j])}"
                )
            for mu, c in expansion.items():
                if mu != j:
                    # column mu is zero above row mu, as asserted below
                    s = above[mu]
                    col[s:] = [a - c * row[mu] for a, row in zip(col[s:], out[s:])]
        top = above[j]
        if any(col[:top]):
            raise AssertionError(
                f"the ({n},{g}) {direction} column at h = {Partition(rows[j])} is not zero "
                "above its row"
            )
        for row, x in zip(out[top:], col[top:]):
            row[j] = x
    return out


def _filled(n, g, direction, zeros):
    """`_entries(n, g, direction, zeros)`, the smaller weights filled first
    in increasing order, which keeps the stack depth flat."""
    for w in range(g):
        _entries(n, w, direction, zeros)
    return _entries(n, g, direction, zeros)


def _matrix(n, g, direction):
    return TransitionMatrix(
        partitions_at_most(g, n), e_indices(n, g), _filled(n, g, direction, 0), direction
    )


@lru_cache(maxsize=None)
def transition_beta(n, g):
    """beta[h][k] = coefficient of the sorted monomial L^h in e^k.

    Column k is e_i times column k - eps_i of beta(n, g - i), for the
    largest i with k_i > 0, expanded in the m-basis by the Pieri table.
    """
    return _matrix(n, g, "beta")


@lru_cache(maxsize=None)
def transition_alpha(n, g):
    """alpha[k][h] = coefficient of e^k in m_h, the inverse of beta.

    Column h is read backwards off the same Pieri table as beta, without
    building beta: m_h = e_i * m_(h - (1^i)) minus later m_mu.
    """
    return _matrix(n, g, "alpha")


def alpha_invariant_rows(n, g):
    """(k, row) for each row of `transition_alpha(n, g)` whose e-index k
    has k1 = 0, the rows that carry the basis invariants, in the canonical
    order.  Built from the k1 = 0 rows at the weights g - i, i >= 2, and
    the same-weight Pieri subtraction: no other row of alpha is built.
    The rows are shared with the cache: never changed."""
    return list(zip((k for k in e_indices(n, g) if k[0] == 0), _filled(n, g, "alpha", 1)))


def bar_reduce(p, n):
    """Reduce modulo L1 + ... + Ln: substitute Ln := -(L1 + ... + L(n-1))."""
    repl = Poly.zero("L")
    for i in range(1, n):
        repl = repl - Poly.variable("L", i)
    return p.substitute(n, repl)


def _reduced_forms(n, h):
    """The linear forms sum(L_i, i in T) of p_h as {variable: coefficient}.

    Ln is replaced by -(L1 + ... + L(n-1)), so a form with n in T has
    coefficient -1 on every L_j outside T and 0 inside it.
    """
    if 2 * h < n:
        subsets = combinations(range(1, n + 1), h)
    else:
        subsets = (
            (1,) + rest for rest in combinations(range(2, n + 1), h - 1)
        )
    for T in subsets:
        if T[-1] == n:
            yield {j: -1 for j in range(1, n) if j not in T}
        else:
            yield dict.fromkeys(T, 1)


def _digit_table(variables, uses):
    """(exponent pairs, degree) of every exponent string of the variables.

    Listed in mixed-radix order, the first variable most significant and
    L_j running over 0..uses[j].
    """
    return [
        (tuple((j, e) for j, e in zip(variables, digits) if e), sum(digits))
        for digits in product(*(range(uses[j] + 1) for j in variables))
    ]


# The box of one expansion: 2^23 slots are 64 MiB of packed int.  q_6 has
# 83,521 slots, p_h(7, 3) 4.08 M (2.0-2.5 s, 168 MB peak RSS cold on a
# 2-vCPU Xeon with CPython 3.11) and p_h(8, 2) 4.83 M; p_h(9, 2) would
# have 170.9 M and p_h(n, 1) has 3^(n-2), past it for n >= 17.
EXPAND_MAX_SLOTS = 1 << 23


def _times_form(acc, steps):
    """acc times the sum of c * 2^s over the (s, c) steps, by Horner's rule
    over the shifts s, largest first: one shift and one add or subtract
    of acc per step, and a multiply only for c other than +1 or -1."""
    total, above = 0, steps[0][0] if steps else 0
    for s, c in steps:
        total <<= above - s
        above = s
        if c == 1:
            total += acc
        elif c == -1:
            total -= acc
        else:
            total += c * acc
    return total << above


def _product_slots(forms, shift, size):
    """The product of the forms, L_j packed at bit shift[j], as an array
    of its `size` signed 64-bit slots.  The packed ints are this helper's
    locals, so they are freed before the caller reads the slots."""
    acc = 1
    # Smith's rule: increasing (largest shift) / (number of terms)
    order = sorted(forms, key=lambda form: max(map(shift.get, form), default=0) / (len(form) or 1))
    for form in order:
        acc = _times_form(acc, sorted(((shift[j], c) for j, c in form.items()), reverse=True))
    # Adding 2^63 to every slot makes each one nonnegative without a
    # carry; the XOR takes it off again as the slot's two's complement.
    offset = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * size, "little")
    slots = array("q", ((acc + offset) ^ offset).to_bytes(8 * size, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _expand_forms(forms, n):
    """The product of linear forms {j: c} in L1..L(n-1), expanded as a Poly.

    Kronecker substitution: L_j becomes x^r_j with x = 2^64, so the whole
    product is one int whose 64-bit slots are the signed coefficients.
    Each form multiplies it by Horner's rule over the form's shifts,
    largest first (`_times_form`).  No exponent of L_j exceeds u_j, the
    number of forms that use it, so the mixed radix r_j = prod((u_k + 1)
    for j < k < n - 1) never carries, L1 most significant.  Every form is
    linear, so the product is homogeneous of degree len(forms): L(n-1)
    gets r = 0 and its exponent is that degree minus the others.

    A Horner step costs the form's terms times the length of the product
    so far, and lengthens it by the form's largest shift, so the forms
    are taken in increasing (largest shift) / (number of terms), which
    minimizes the sum of those costs by Smith's rule.

    Each slot is decoded by one tuple concatenation: the pairs of its
    upper digits and a table entry, by upper degree, of its lower digits'
    pairs and L(n-1)'s.  The dict is filled from the highest slot down,
    lex-descending on (e1, ..., e(n-1)), which on a homogeneous product
    is the canonical order of `Poly.terms()`; the Poly is built by
    `Poly._in_order`, which keeps the dict and reads it in that order
    without a sort.  A nonzero slot whose exponents of L1..L(n-2) sum
    past the degree raises AssertionError.

    The product of the forms' l1 norms bounds every coefficient; a bound
    of 2^63 or more raises ValueError before any product is built, and so
    does a box of more than EXPAND_MAX_SLOTS slots.
    """
    forms = list(forms)
    degree = len(forms)
    bound = prod(sum(map(abs, form.values())) for form in forms)
    if bound >= 1 << 63:
        raise ValueError(
            f"the product of {degree} linear forms has coefficient bound "
            f"2^{log2(bound):.1f}, past a signed 64-bit slot"
        )
    packed = range(1, n - 1)
    uses = {j: sum(j in form for form in forms) for j in packed}
    shift, size = {n - 1: 0}, 1
    for j in reversed(packed):
        shift[j] = 64 * size
        size *= uses[j] + 1
    if size > EXPAND_MAX_SLOTS:
        raise ValueError(
            f"the product of {degree} linear forms needs {size} slots, "
            f"more than the {EXPAND_MAX_SLOTS} of one expansion"
        )
    slots = _product_slots(forms, shift, size)
    half = len(packed) // 2
    upper = _digit_table(packed[:half], uses)
    lower = _digit_table(packed[half:], uses)
    # tails[d][lo]: the pairs of lower digits lo and of L(n-1), whose
    # exponent makes the degree up after upper digits of degree d; None
    # where the digits' degrees sum past it, so that a nonzero slot there
    # fails its concatenation
    last = [((n - 1, e),) if e else () for e in range(degree + 1)]
    tails = {
        d: [
            lo_pairs + last[degree - d - lo_degree] if lo_degree <= degree - d else None
            for lo_pairs, lo_degree in lower
        ]
        for d in {hi_degree for _, hi_degree in upper}
    }
    of = ExponentVector._of
    terms = {}
    # From the highest slot down is lex-descending on (e1, ..., e(n-1)),
    # the canonical order of Poly.terms().
    width = len(lower)
    for hi in range(len(upper) - 1, -1, -1):
        hi_pairs, hi_degree = upper[hi]
        tail = tails[hi_degree]
        block = slots[hi * width:(hi + 1) * width]
        for lo in compress(range(width - 1, -1, -1), reversed(block)):
            try:
                terms[of(hi_pairs + tail[lo])] = block[lo]
            except TypeError:
                raise AssertionError(f"slot {hi * width + lo} has degree above {degree}") from None
    if sum(terms.values()) != prod(sum(form.values()) for form in forms):
        raise AssertionError("the expansion's coefficient sum does not match its forms'")
    # distinct slots give distinct monomials, so the Poly takes the dict as
    # built, and its order as the canonical one
    return Poly._in_order("L", terms)


def p_h(n, h):
    """Product of the linear forms sum(L_i, i in T) over |T| = h, reduced.

    Degree binom(n, h) for 2h < n; for n = 2h only subsets containing 1
    are used, giving degree binom(2h, h)/2.  No sign normalization.
    Raises ValueError where the expansion's coefficient bound reaches
    2^63: p_h(8, 3), p_h(8, 4), p_h(9, h >= 3) and p_h(n, h >= 2) for
    n >= 10; and where its box passes EXPAND_MAX_SLOTS: p_h(9, 2) and
    p_h(n, 1) for n >= 17.
    """
    if not 1 <= h <= n // 2:
        raise ValueError(f"h must satisfy 1 <= h <= {n // 2}")
    return _expand_forms(_reduced_forms(n, h), n)


def q_n(n):
    """The product p_1 * p_2 * ... * p_floor(n/2), of degree 2^(n-1) - 1.

    All linear forms of all p_h are multiplied into one expansion.  Every
    term of a product of linear forms has degree the number of forms, and
    the expansion checks its coefficient sum, so the degree is checked on
    the count of forms, before the expansion.  q_6 fills 19930 of its
    83521 slots; q_7, whose coefficient bound is 94 bits and whose box
    would have 39.1 million slots, raises ValueError at once, and so does
    every larger n.  Not cached: the expansion (about 3 MB for q_6) is
    freed when the caller drops it.
    """
    if n < 3:
        raise ValueError("q_n is defined for n >= 3")
    forms = [form for h in range(1, n // 2 + 1) for form in _reduced_forms(n, h)]
    if len(forms) != 2 ** (n - 1) - 1:
        raise AssertionError("q_n degree mismatch")
    return _expand_forms(forms, n)


def _form_leads(n, h):
    """({j: the number of reduced forms of p_h that lead with L_j}, the
    number of those forms whose lead has coefficient -1), counted by
    binomial coefficients, without listing the forms.

    In lex order a form leads with its smallest variable.  A form without
    n in T is +sum(L_i, i in T) and leads with L_j for j = min(T): the
    other h - 1 places of T lie in j+1..n-1.  A form with n in T is
    -sum(L_i, i < n not in T) and leads with L_j for the least j < n
    outside T: 1..j-1 lie in T and its other h - j places in j+1..n-1.
    For n = 2h only the subsets holding 1 are forms, so a form without n
    leads with L1 and a form with n leads with L_j, j >= 2.
    """
    half = 2 * h == n
    leads = Counter({j: comb(n - 1 - j, h - 1) for j in range(1, 2 if half else n)})
    negative = Counter({j: comb(n - 1 - j, h - j) for j in range(2 if half else 1, h + 1)})
    return leads + negative, sum(negative.values())


def q_n_leading_monomial(n):
    """(coefficient, exponent vector) of the lex-leading term of q_n, read
    off its linear forms without expanding them.

    Lex order is a monomial order, so a product of linear forms leads with
    the product of their leading terms, each a variable with coefficient
    +1 or -1 (`_form_leads`).  The exponent of L_j is the number of forms
    that lead with L_j, and the coefficient is -1 to the number of forms
    that lead with -1.  O(n^2) steps for any n >= 3; the paper's lemma
    says the exponent is (2^(n-2), ..., 2, 1).
    """
    if n < 3:
        raise ValueError("q_n is defined for n >= 3")
    exponent, negatives = Counter(), 0
    for h in range(1, n // 2 + 1):
        leads, minus = _form_leads(n, h)
        exponent += leads
        negatives += minus
    if sum(exponent.values()) != 2 ** (n - 1) - 1:
        raise AssertionError("q_n degree mismatch")
    return (-1) ** negatives, ExponentVector(exponent)


def reduced_e_leading_monomial(i, n):
    """(coefficient, exponent vector) of the lex-leading term of e_i
    reduced modulo L1 + ... + Ln, for 2 <= i <= n: -L1^2 * L2 * ... * L(i-1).

    With Ln = -(L1 + ... + L(n-1)) and e' the elementary functions of the
    first n - 1 variables, e_i reduces to e_i' - e_1' * e_(i-1)', and
    e_1' * e_(i-1)' leads with L1 * (L1 * ... * L(i-1)), above every term
    of e_i' (which is 0 for i = n).
    """
    if not 2 <= i <= n:
        raise ValueError(f"i must satisfy 2 <= i <= {n}")
    return -1, ExponentVector._of(((1, 2),) + tuple((j, 1) for j in range(2, i)))


def leading_exponent(p):
    """Lexicographically greatest exponent vector with nonzero coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading exponent")
    return max(p.exponents(), key=ExponentVector.lex_key)


def leading_monomial(p):
    """(coefficient, exponent vector) of the leading term."""
    ev = leading_exponent(p)
    return p.coefficient(ev), ev
