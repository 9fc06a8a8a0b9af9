"""One reference per stage of the pipeline, and the words of at most 8
letters with their reference values, computed once per test session.

Each reference is the plain, letter-by-letter computation of its stage:

- image: ``slow_image``, the generator matrices multiplied out
  (``matrix_product``), and the letters' transpositions (``TRANSPOSITION``);
- values read off the image: ``pairwise_gcd_smith_normal_form`` (H1),
  ``branching_trace_class`` and ``basis_parabolic_invariant``;
- syllables: ``per_syllable_stack`` and ``branching_cyclic_reduce``;
- least rotation: ``slow_least_rotation``, the minimum over all rotations.
  ``booth_least_rotation`` stays for
  ``test_least_rotation_matches_booth_on_random_tuples``, whose 200 tuples of
  up to 10^4 entries the quadratic minimum cannot afford;
- free reduction: ``attribute_free_reduce``;
- letters and equality of words built from runs: ``per_run_letters``,
  ``letter_level_blocks`` and ``walk_same_letters``;
- parse: ``grammar_parse``, with ``packed_keys`` for the byte path's windows
  and ``groupby_run_text`` for the text of a word;
- model word and mirror: ``model_letters`` and
  ``slow_mirror_form``;
- report: ``reference_analyze_word``, its rows read from
  ``per_family_assembly`` and ``per_branch_surgery_table``, with
  ``per_family_delta``, and ``encoder_json_line`` over ``report_json``;
- oracle: V + V^T of the pair loop (``pair_loop_seifert``,
  ``dense_crossing_rows``) eliminated over the rationals
  (``fraction_pivots``), the one derivation independent of the Goeritz
  route, which checks Gordon-Litherland's sign(G) - mu = sign(V + V^T); and
  ``tait_goeritz``, the Tait graph's Laplacian, which pins the oracle's rows.

The rule: a new fast path joins or replaces its stage's reference here, and
never adds a chain; the code it replaces does not stay as a second reference
once this one checks the same inputs.  A helper that pins a property of an
algorithm itself (an operation count, a profile count, a linear-time guard)
stays with its test.
"""

import itertools
import json
import math
from collections import namedtuple
from fractions import Fraction
from math import prod

import pytest

from threebraid import floer, homology, invariants, murasugi
from threebraid import words as w_
from threebraid.floer import (
    FIGURE_EIGHT_LIKE,
    LEFT_TREFOIL_LIKE,
    RIGHT_TREFOIL_LIKE,
    GradedModule,
    PositiveB1,
    TorusBundleModules,
)
from threebraid.homology import SL2Matrix
from threebraid.invariants import FamilyNotCovered
from threebraid.murasugi import (
    S,
    Family1,
    Family2,
    Family3,
    canonical_word,
    classify,
)
from threebraid.words import (
    MAX_LETTERS,
    BraidWord,
    Perm3,
    WordTooLong,
    inverse,
)

# --- letters -------------------------------------------------------------

LETTERS = (w_.X, w_.Y, w_.X_INV, w_.Y_INV)

# Each letter spelled as the unit token that parse's byte path reads.
TOKEN = {w_.X: "x", w_.Y: "y", w_.X_INV: "x^-1", w_.Y_INV: "y^-1"}

# The generator matrices and transpositions, written out independently of
# the package's tables.
GENERATOR = {
    w_.X: SL2Matrix(1, 1, 0, 1),
    w_.X_INV: SL2Matrix(1, -1, 0, 1),
    w_.Y: SL2Matrix(1, 0, -1, 1),
    w_.Y_INV: SL2Matrix(1, 0, 1, 1),
}
TRANSPOSITION = {"x": Perm3((2, 1, 3)), "y": Perm3((1, 3, 2))}


# --- image ---------------------------------------------------------------

def matrix_product(m, n):
    """The 2x2 product as a 4-tuple, written out here, so that no reference
    for ``image`` goes through ``homology._product`` or
    ``SL2Matrix.__mul__``."""
    p, q, r, s = m
    a, b, c, d = n
    return p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d


def slow_image(letters, start=SL2Matrix(1, 0, 0, 1)):
    """``start`` times the generator matrix of each letter, left to right;
    the determinant is checked once, on the product."""
    result = start
    for letter in letters:
        result = matrix_product(result, GENERATOR[letter])
    return SL2Matrix(*result)


# --- values read off the image ------------------------------------------

def pairwise_gcd_smith_normal_form(m):
    """The cokernel with the entry gcd taken pairwise, of absolute values."""
    (a, b), (c, d) = m
    g = math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d)))
    det = abs(a * d - b * c)
    diagonal = (g, det // g) if det else (g, 0)
    return homology.AbelianGroup(sum(e == 0 for e in diagonal),
                                 tuple(e for e in diagonal if e >= 2))


def basis_parabolic_invariant(m):
    """(epsilon, k) read by completing the primitive fixed vector v of
    epsilon * m to a determinant-one basis (v, u): (epsilon * m)u = u + k v."""
    if homology.trace_class(m).kind != homology.PARABOLIC:
        raise homology.NotParabolic(m)
    epsilon = 1 if m.trace > 0 else -1
    n = m if epsilon == 1 else -m
    (a, b), (c, d) = n.minus_identity()
    row = (a, b) if (a, b) != (0, 0) else (c, d)
    g = math.gcd(*row)
    v = (row[1] // g, -row[0] // g)
    old_r, r, old_s, s, old_t, t = v[0], v[1], 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    u = (-old_t, old_s)
    nu = (n.a * u[0] + n.b * u[1], n.c * u[0] + n.d * u[1])
    w = (nu[0] - u[0], nu[1] - u[1])
    k = w[0] // v[0] if v[0] else w[1] // v[1]
    assert w == (k * v[0], k * v[1]) and v[0] * u[1] - v[1] * u[0] == 1, m
    return epsilon, k


def branching_trace_class(m):
    """The trace class with centrality tested against +-I, and one sign
    rule per kind."""
    identity = SL2Matrix(1, 0, 0, 1)
    t = m.trace
    if m == identity or m == -identity:
        return homology.TraceClass(homology.CENTRAL,
                                   1 if m == identity else -1)
    if abs(t) <= 1:
        return homology.TraceClass(homology.ELLIPTIC, -1 if t < 0 else 1)
    if abs(t) == 2:
        return homology.TraceClass(homology.PARABOLIC, 1 if t > 0 else -1)
    return homology.TraceClass(homology.HYPERBOLIC, 1 if t > 0 else -1)


# --- syllables -----------------------------------------------------------

def per_syllable_stack(runs, stack=b"", exponent_sum=0):
    """The freely reduced syllables and the exponent sum of a run sequence
    appended to ``stack``, pushed one syllable at a time and merged per kind:
    S pops S, and U-powers add mod 3."""
    stack = list(stack)
    for run in runs:
        syllables = murasugi._LETTER_SYLLABLES.get(run)
        if syllables is None:
            syllables, weight = murasugi._run_syllables(*run)[:2]
        else:
            weight = run[1]
        exponent_sum += weight
        for syllable in syllables:
            if not stack or (stack[-1] == S) != (syllable == S):
                stack.append(syllable)
            elif syllable == S:
                stack.pop()
            else:
                e = (stack.pop() + syllable) % 3
                if e:
                    stack.append(e)
    return bytes(stack), exponent_sum


def branching_cyclic_reduce(syllables):
    """Conjugate away matching end syllables, branching on their kind: S
    cancels S, and U-powers add mod 3."""
    first, last = 0, len(syllables) - 1
    while first < last and \
            (syllables[first] == S) == (syllables[last] == S):
        head, tail = syllables[first], syllables[last]
        first += 1
        last -= 1
        if head != S:
            e = (head + tail) % 3
            if e:
                return syllables[first:last + 1] + bytes((e,))
    return syllables[first:last + 1]


def end_kinds(syllables):
    """The kinds of the first and last syllable, written out: 1 for S and
    2 for a U-power, 0 for none."""
    if not syllables:
        return 0, 0
    return (1 if syllables[0] == S else 2), (1 if syllables[-1] == S else 2)


# --- least rotation ------------------------------------------------------

def slow_least_rotation(seq):
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=())


def booth_least_rotation(seq):
    """Booth's algorithm ("Lexicographically least circular substrings",
    IPL 10, 1980): a Knuth-Morris-Pratt failure function over the doubled
    sequence, reset whenever a smaller rotation start k is found."""
    n = len(seq)
    doubled = tuple(seq) * 2
    failure = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        item = doubled[j]
        i = failure[j - k - 1]
        while i != -1 and item != doubled[k + i + 1]:
            if item < doubled[k + i + 1]:
                k = j - i - 1
            i = failure[i]
        if i == -1 and item != doubled[k]:
            if item < doubled[k]:
                k = j
            failure[j - k] = -1
        else:
            failure[j - k] = i + 1
    return doubled[k:k + n]


# --- free reduction ------------------------------------------------------

def attribute_free_reduce(letters, reduced=()):
    """The freely reduced letters of ``reduced`` followed by ``letters``, by
    a stack that pops its top when the next letter has the top's generator
    and the opposite sign."""
    stack = list(reduced)
    for letter in letters:
        if stack and stack[-1].generator == letter.generator \
                and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


# --- letters of runs and word equality ----------------------------------

def per_run_letters(runs):
    """The letters of a run sequence, each run expanded on its own."""
    return tuple(itertools.chain.from_iterable(map(w_._run_letters, runs)))


def walk_same_letters(u, v):
    """Whether two run sequences spell the same letters.  Each step
    compares the next k letters of both, k the shorter head's length, by
    their first two, and drops them, which uses up at least one run."""
    left, right = [(s for s in map(w_._segment, runs) if s[2])
                   for runs in (u, v)]
    n = m = 0
    while True:
        if not n:
            a, b, n = next(left, (None, None, 0))
        if not m:
            c, d, m = next(right, (None, None, 0))
        if not (n and m):
            return n == m
        k = min(n, m)
        if a is not c or (k > 1 and b is not d):
            return False
        n, m = n - k, m - k
        if k % 2:
            a, b, c, d = b, a, d, c


def letter_level_blocks(letters):
    """The maximal alternating blocks of a letter sequence, read from the
    left one letter at a time; a one-letter block is (a, a, 1)."""
    blocks = []
    for letter in letters:
        if blocks:
            a, b, n = blocks[-1]
            if n == 1 or letter is (b if n % 2 else a):
                blocks[-1] = (a, letter if n == 1 else b, n + 1)
                continue
        blocks.append((letter, letter, 1))
    return blocks


# --- parse ---------------------------------------------------------------

def grammar_parse(text):
    """The grammar of ``parse`` on every token."""
    runs = []
    letter_count = 0
    for position, token in enumerate(text.split(), start=1):
        base, caret, exponent_text = token.partition("^")
        exponent = w_._exponent(exponent_text, token, position) if caret else 1
        try:
            positive, negative = w_._BASE_UNITS[base]
        except KeyError:
            raise w_.UnknownToken(f"unknown generator {base!r}",
                                  position) from None
        if exponent == 1:
            run = positive
        elif exponent == -1:
            run = negative
        elif exponent:
            run = (positive[0], exponent)
        else:
            continue
        if run[0] != "h":
            letter_count += abs(exponent)
            if letter_count > MAX_LETTERS:
                raise WordTooLong(f"more than {MAX_LETTERS} x/y letters",
                                  position)
        runs.append(run)
    return BraidWord(tuple(runs))


def packed_keys(letters):
    """The fold input (windows, tail) of a word of these letters read on
    parse's byte path, packed here a window at a time: each aligned window
    of CHUNK letters as the byte of its codes in LETTERS, the first in the
    top two bits, then the letters left."""
    chunk = w_.CHUNK
    letters = tuple(letters)
    full = len(letters) - len(letters) % chunk
    return bytes(sum(LETTERS.index(letter) << 2 * (chunk - 1 - i)
                     for i, letter in enumerate(letters[start:start + chunk]))
                 for start in range(0, full, chunk)), letters[full:]


def groupby_run_text(w):
    """``run_text`` as one ``groupby`` group per generator and sign: an x/y
    group is summed to one token, an h group keeps a token per run."""
    tokens = []
    for (generator, _), group in itertools.groupby(
            w.runs, lambda r: (r[0], r[1] > 0)):
        exponents = [e for _, e in group]
        if generator != "h":
            exponents = [sum(exponents)]
        tokens += [generator if e == 1 else f"{generator}^{e}"
                   for e in exponents]
    return " ".join(tokens)


# --- model word and mirror ----------------------------------------------

def model_letters(f):
    """The model word letter by letter: h^d expanded, then the tail."""
    letters = list(w_.power(w_.word(w_.H_LETTERS), f.d).letters)
    if isinstance(f, Family1):
        for ai in f.a:
            letters += [w_.X] + [w_.Y_INV] * ai
    elif isinstance(f, Family2):
        letters += [w_.Y if f.m > 0 else w_.Y_INV] * abs(f.m)
    else:
        letters += [w_.X_INV] * -f.m + [w_.Y_INV]
    return tuple(letters)


def slow_mirror_form(f):
    return classify(inverse(canonical_word(f)))


# --- report --------------------------------------------------------------

def module(towers, frees=()):
    """The public module of these towers and (rank, grading) frees, every
    grading a ``Fraction``."""
    return GradedModule(tuple(Fraction(g) for g in towers),
                        tuple((rank, Fraction(g)) for rank, g in frees))


def per_branch_surgery_table(tag, n):
    """The 1/n rows written out one branch per tag and sign of n."""
    if tag == RIGHT_TREFOIL_LIKE:
        if n > 0:
            return module([-2], [(n - 1, -2)])
        return module([0], [(-n, -1)])
    if tag == LEFT_TREFOIL_LIKE:
        if n >= 0:
            return module([0], [(n, 0)])
        return module([2], [(-n - 1, 1)])
    if n >= 0:
        return module([0], [(n, -1)])
    return module([0], [(-n, 0)])


def per_family_assembly(f):
    """(tag, n, shift) written out per family and parity of d."""
    if isinstance(f, Family1):
        total = sum(f.a)
        n_blocks = len(f.a)
        if f.d % 2:
            k = (f.d - 1) // 2
            return RIGHT_TREFOIL_LIKE, -k, Fraction(n_blocks + 4 - total, 4)
        k = f.d // 2
        return FIGURE_EIGHT_LIKE, -k, Fraction(n_blocks - total, 4)
    if isinstance(f, Family2):
        if f.d % 2 == 0:
            raise PositiveB1(f)
        k = (f.d - 1) // 2
        return RIGHT_TREFOIL_LIKE, -k, Fraction(f.m + 4, 4)
    if f.d % 2:
        k = (f.d - 1) // 2
        return RIGHT_TREFOIL_LIKE, -k, Fraction(f.m + 3, 4)
    k = f.d // 2
    return LEFT_TREFOIL_LIKE, -k, Fraction(f.m + 1, 4)


def per_family_delta(f):
    """Delta of a knot closure written out per family and sign of d."""
    if isinstance(f, Family1):
        n, total = len(f.a), sum(f.a)
        if f.d % 2 == 0:
            return Fraction(n - total, 2)
        if f.d > 0:
            return Fraction(n + 4 - total, 2)
        return Fraction(n - 4 - total, 2)
    if isinstance(f, Family3) and f.m in (-1, -3):
        if f.d % 2:
            return Fraction(f.m + 3, 2) if f.d > 0 else Fraction(f.m - 5, 2)
        return Fraction(f.m + 9, 2) if f.d > 0 else Fraction(f.m + 1, 2)
    raise FamilyNotCovered(f)


# The 0-surgery rows as Fraction modules.
FRACTION_ZERO_SURGERY_ROWS = {
    RIGHT_TREFOIL_LIKE: GradedModule((Fraction(-1, 2), Fraction(-3, 2))),
    LEFT_TREFOIL_LIKE: GradedModule((Fraction(3, 2), Fraction(1, 2))),
    FIGURE_EIGHT_LIKE: GradedModule((Fraction(1, 2), Fraction(-1, 2)),
                                    ((1, Fraction(-1, 2)),)),
}


def renormalised_shift(module, q):
    """The module shifted by q by ``Fraction`` addition, renormalised by
    the public constructor."""
    return GradedModule(tuple(g + q for g in module.towers),
                        tuple((rank, g + q) for rank, g in module.frees),
                        module.absolute)


def reference_analyze_word(w, raw_text=None, include_torus_bundle=False):
    """``analyze_word`` with each value computed on its own: the determinant
    and H1 from m - I written out, the surgery row of the per-family
    assembly shifted as a ``Fraction``, the bundle's zero
    row renormalised from its ``Fraction`` module, delta twice the
    correction term, the Stein Euler characteristic 4d + 1, the screen of
    the public function, and the report built by keyword."""
    matrix = homology.image(w)
    form = murasugi.classify(w, matrix)
    components = homology.components_from_image(matrix)
    (a, b), (c, d) = matrix.minus_identity()
    det = abs(a * d - b * c)
    h1 = pairwise_gcd_smith_normal_form(matrix.minus_identity())
    hf = correction = delta_value = sig = bundle = None
    if det != 0:
        tag, n, q = per_family_assembly(form)
        hf = renormalised_shift(per_branch_surgery_table(tag, n), q)
        correction = hf.towers[0]
        if include_torus_bundle:
            bundle = TorusBundleModules(
                s0=renormalised_shift(FRACTION_ZERO_SURGERY_ROWS[tag], q),
                non_s0_count=det - 1,
                non_s0_relative=GradedModule(
                    (Fraction(1, 2), Fraction(-1, 2)), (), absolute=False))
    if components == 1:
        delta_value = 2 * correction
        if isinstance(form, Family1):
            sig = invariants.signature(form, components)
    l_space, tight = floer.is_l_space(form), floer.is_tight(form)
    twist_bound = 6 * form.d + murasugi.tail_exponent_sum(form)
    fillable, euler = invariants.NO, None
    if tight and not l_space:
        fillable = invariants.UNKNOWN
    elif tight and 4 * correction + 1 >= 1:
        fillable, euler = invariants.CONSTRAINED, int(4 * correction + 1)
    return invariants.InvariantReport(
        word=w_.run_text(w) if raw_text is None else raw_text,
        normal_form=form,
        components=components,
        determinant=det,
        h1=h1,
        b1=h1.free_rank,
        l_space=l_space,
        tight=tight,
        tight_inverse=floer.is_tight_inverse(form),
        knot_type_tag=floer.knot_type(form),
        hf_plus_s0=hf,
        spin_c_count=det if hf is not None else None,
        correction_term=correction,
        delta=delta_value,
        signature=sig,
        qa=invariants.quasi_alternating(form),
        finite_order_screen=invariants.finite_order_screen(form, components),
        stein=invariants.SteinReport(l_space, tight, fillable, euler,
                                     twist_bound),
        torus_bundle=bundle,
    )


def encoder_json_line(report, oracle):
    """The ``--json`` line as the generic encoder writes it: the dict of
    ``report_json``, with the oracle block added last."""
    payload = invariants.report_json(report)
    if oracle is not None:
        payload["oracle"] = oracle
    return json.dumps(payload, separators=(",", ":"))


# --- oracle --------------------------------------------------------------

def pair_loop_seifert(reduced):
    """V of a reduced diagram, as a dict of its nonzero entries by (row,
    column), and its generators, one generator pair at a time."""
    crossings = [(0 if letter.generator == "x" else 1, letter.sign)
                 for letter in reduced]
    positions = {0: [], 1: []}
    for position, (column, _) in enumerate(crossings):
        positions[column].append(position)
    generators = [(column, first, second) for column in (0, 1)
                  for first, second in zip(positions[column],
                                           positions[column][1:])]
    sign_at = {pos: sign for pos, (_, sign) in enumerate(crossings)}
    v = {}
    for i, (column, p1, p2) in enumerate(generators):
        if sign_at[p1] == sign_at[p2]:
            v[i, i] = -1 if sign_at[p1] > 0 else 1
    for i, (column, p1, p2) in enumerate(generators):
        for j, (column2, q1, q2) in enumerate(generators[i + 1:], i + 1):
            if column2 == column and q1 == p2:
                if sign_at[p2] > 0:
                    v[j, i] = 1
                else:
                    v[i, j] = -1
            elif column2 == column + 1:
                if q1 < p1 < q2 < p2:
                    v[j, i] = 1
                elif p1 < q1 < p2 < q2:
                    v[j, i] = -1
    return v, tuple(generators)


def dense_crossing_rows(entries, generators):
    """Rows of V + V^T in crossing order, as dicts of the nonzeros."""
    order = sorted(range(len(generators)), key=lambda i: generators[i][1])
    new = {old: index for index, old in enumerate(order)}
    rows = [{} for _ in order]
    for (i, j), x in entries.items():
        for a, b in ((new[i], new[j]), (new[j], new[i])):
            rows[a][b] = rows[a].get(b, 0) + x
    return [{j: x for j, x in row.items() if x} for row in rows]


def fraction_pivots(rows):
    """Diagonal of a congruence diagonalization over the rationals of the
    symmetric form of these sparse rows, which it consumes.  A zero row
    gives the pivot 0; a zero diagonal is first eliminated through the
    nearest later row with a nonzero diagonal, or made nonzero by adding
    the nearest neighbour's row and column.  The choices read the columns
    in order, so the pivots do not depend on the order of a row's keys."""
    pivots = []

    def eliminate(k):
        row, rows[k] = rows[k], None
        pivot = row.pop(k)
        pivots.append(pivot)
        band = [(i, x) for i, x in row.items() if x]
        for index, (i, x) in enumerate(band):
            del rows[i][k]
            for j, y in band[index:]:
                rows[i][j] = rows[j][i] = \
                    rows[i].get(j, 0) - quotient(x * y, pivot)

    for k, row in enumerate(rows):
        if row is None:
            continue
        if not row.get(k):
            band = sorted(j for j, x in row.items() if x and j != k)
            if not band:
                pivots.append(0)
                continue
            swap = next((j for j in band if rows[j].get(j)), None)
            if swap is not None:
                eliminate(swap)
            else:
                j = band[0]
                for l, x in rows[j].items():
                    if x and l != k:
                        row[l] = rows[l][k] = row.get(l, 0) + x
                row[k] = 2 * row[j]
        eliminate(k)
    return pivots


def quotient(a, b):
    """a / b, exact: an int when both are ints and b divides a, else a
    ``Fraction``."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return Fraction(a, b)


def rational_form(rows):
    """(signature, det) of the symmetric form of these sparse rows, read
    from ``fraction_pivots``."""
    pivots = fraction_pivots(rows)
    return sum(1 if pivot > 0 else -1 for pivot in pivots if pivot), \
        prod(pivots)


def tait_goeritz(reduced, cut):
    """The sparse Goeritz rows and the correction term mu, built from the
    edge list of the Tait graph when the letters of column ``cut`` cut the
    regions.  Its vertices are the regions between those crossings, region
    r after cut crossing r, and the outer region.  A cut crossing joins the
    regions before and after it with weight minus its sign, any other
    crossing its region to the outer one with weight its sign, and mu sums
    the other crossings' signs.  G is the weighted Laplacian with the outer
    region's row and column deleted, each row a dict of its nonzeros."""
    p = sum(letter.generator == cut for letter in reduced)
    outer = p
    edges, mu, seen = [], 0, 0
    for generator, sign in reduced:
        region = (seen - 1) % p
        if generator == cut:
            edges.append((region, seen, -sign))
            seen += 1
        else:
            edges.append((region, outer, sign))
            mu += sign
    laplacian = [{} for _ in range(p + 1)]
    for a, b, weight in edges:
        if a != b:
            for i, j, entry in ((a, a, weight), (b, b, weight),
                                (a, b, -weight), (b, a, -weight)):
                laplacian[i][j] = laplacian[i].get(j, 0) + entry
    return [{j: x for j, x in row.items() if j != outer and x}
            for row in laplacian[:p]], mu


OracleValues = namedtuple("OracleValues", "rows mu signature determinant")


def oracle_rows(reduced):
    """The Goeritz rows and mu that the oracle reads off a reduced diagram
    that uses both columns: the column with fewer crossings, x on a tie,
    cuts the regions."""
    xs = sum(letter.generator == "x" for letter in reduced)
    rows, mu = tait_goeritz(reduced, "x" if 2 * xs <= len(reduced) else "y")
    return tuple(rows), mu


def oracle_reference(reduced):
    """``oracle_rows`` and the closure's signature sign(G) - mu and |det G|,
    read by the rational elimination."""
    rows, mu = oracle_rows(reduced)
    signature, det = rational_form([dict(row) for row in rows])
    return OracleValues(rows, mu, signature - mu, abs(det))


# --- the words of at most 8 letters --------------------------------------

ShortWord = namedtuple(
    "ShortWord", "letters image permutation stack exponent_sum reduced")


def short_word_table(max_length=8):
    """Every word of at most ``max_length`` letters, by length and then in
    ``itertools.product`` order over LETTERS, with its reference image,
    permutation, syllable stack (before cyclic reduction) and exponent sum,
    and its freely reduced letters.  Each word's values extend those of the
    word one letter shorter by its last letter."""
    level = [ShortWord((), SL2Matrix(1, 0, 0, 1), Perm3((1, 2, 3)), b"", 0,
                       ())]
    table = list(level)
    for _ in range(max_length):
        level = [ShortWord(word.letters + (letter,),
                           slow_image((letter,), word.image),
                           word.permutation.then(
                               TRANSPOSITION[letter.generator]),
                           *per_syllable_stack((letter,), word.stack,
                                               word.exponent_sum),
                           attribute_free_reduce((letter,), word.reduced))
                 for word in level for letter in LETTERS]
        table += level
    return table


def up_to(short_words, max_length):
    """The entries of ``short_words`` of at most ``max_length`` letters."""
    return itertools.takewhile(lambda word: len(word.letters) <= max_length,
                               short_words)


@pytest.fixture(scope="session")
def short_words():
    """The 87,381 words of at most 8 letters and their reference values."""
    return short_word_table()


@pytest.fixture(scope="session")
def short_diagrams(short_words):
    """The 13,088 reduced diagrams of at most 8 letters that use both
    columns, each with its ``oracle_reference``."""
    return {word.letters: oracle_reference(word.letters)
            for word in short_words if word.reduced == word.letters
            and {letter.generator for letter in word.letters} == {"x", "y"}}

