import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etaforge.core import TrigPolyMatrix, constant_trig
from etaforge.subspaces import mobius_symbol
from etaforge.symbols import (CircleSymbol, FullSymbol, _band, _layout,
                              _range_basis, antipodal_pullback,
                              classify_parity, dump_symbol, ellipticity_check,
                              identity_symbol, load_symbol, mode_labels,
                              quantize)


def test_constant_face_promotion():
    s = CircleSymbol(1, np.eye(2), -np.eye(2))
    assert s.rows == s.rank == 2
    assert s.degree == 0
    xs = np.array([0.0, 1.0])
    np.testing.assert_allclose(s.face(-1)(xs)[0], -np.eye(2))


def test_identity_symbol():
    s = identity_symbol(3)
    assert s.order == 0
    xs = np.linspace(0, 2 * np.pi, 4)
    np.testing.assert_allclose(s.plus(xs)[2], np.eye(3), atol=1e-14)
    assert s.plus == s.minus


def test_composition_orders_add():
    a = CircleSymbol(1, np.eye(1), -np.eye(1))
    b = CircleSymbol(2, 2 * np.eye(1), 2 * np.eye(1))
    c = a @ b
    assert c.order == 3
    assert c.face(-1).coeff(0)[0, 0] == -2


def test_direct_sum_blocks():
    a = identity_symbol(1)
    b = CircleSymbol(0, TrigPolyMatrix({1: np.eye(1)}),
                     TrigPolyMatrix({1: np.eye(1)}))
    c = a.direct_sum(b)
    assert c.rank == 2
    xs = np.array([0.3])
    v = c.plus(xs)[0]
    assert abs(v[0, 0] - 1) < 1e-14 and abs(v[1, 1] - np.exp(0.3j)) < 1e-14
    assert abs(v[0, 1]) == 0 and abs(v[1, 0]) == 0


def test_parity_classification():
    assert classify_parity(mobius_symbol()) == "Even"
    # odd: the two face subbundles sum directly to the fiber
    p = constant_trig(np.diag([1.0, 0.0]))
    m = constant_trig(np.diag([0.0, 1.0]))
    assert classify_parity(CircleSymbol(0, p, m)) == "Odd"
    # face ranks that cannot sum to the fiber dimension
    assert classify_parity(CircleSymbol(0, p, constant_trig(np.eye(2)))) \
        == "Neither"


def test_antipodal_pullback_is_involution():
    s = mobius_symbol()
    ss = antipodal_pullback(antipodal_pullback(s))
    xs = np.linspace(0, 2 * np.pi, 17)
    np.testing.assert_allclose(ss.plus(xs), s.plus(xs), atol=1e-14)
    np.testing.assert_allclose(ss.minus(xs), s.minus(xs), atol=1e-14)


def test_antipodal_swaps_faces():
    s = CircleSymbol(0, TrigPolyMatrix({1: np.eye(1)}), constant_trig(np.eye(1)))
    a = antipodal_pullback(s)
    xs = np.linspace(0, 2 * np.pi, 9)
    np.testing.assert_allclose(a.plus(xs), s.minus(xs), atol=1e-14)
    np.testing.assert_allclose(a.minus(xs), s.plus(xs), atol=1e-14)


def test_mode_labels():
    lab = mode_labels(2, 2)
    np.testing.assert_array_equal(lab, [2, 2, 1, 1, 0, 0, 1, 1, 2, 2])


def test_quantize_multiplication_shifts_modes():
    # order-0 symbol z acts as the mode shift n -> n+1 on the + side
    z = TrigPolyMatrix({1: np.eye(1)})
    s = CircleSymbol(0, z, constant_trig(np.eye(1)))
    N = 4
    M = quantize(s, N).matrix
    e = np.zeros(2 * N + 1)
    e[N + 1] = 1.0  # mode +1: plus face applies
    out = M @ e
    assert abs(out[N + 2] - 1.0) < 1e-14
    e0 = np.zeros(2 * N + 1)
    e0[N - 3] = 1.0  # mode -3: minus face (identity)
    np.testing.assert_allclose(M @ e0, e0, atol=1e-14)


def test_quantize_order_weights():
    s = CircleSymbol(1, np.eye(1), -np.eye(1))  # sign(xi) |xi|
    N = 5
    M = quantize(s, N).matrix
    d = np.real(np.diag(M))
    np.testing.assert_allclose(d, [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5],
                               atol=1e-14)


def _quantize_blockwise(full, N):
    # reference: the block-by-block triple loop quantize replaced
    lead = full.principal
    rows, cols = lead.rows, lead.rank
    modes = 2 * N + 1
    A = np.zeros((rows * modes, cols * modes), dtype=complex)
    for term in full.terms:
        for sign, rng in ((+1, range(0, N + 1)), (-1, range(-N, 0))):
            face = term.face(sign)
            table = face.coeff_table()
            d = face.degree
            for i in range(table.shape[0]):
                k = i - d
                block = table[i]
                if not np.any(block):
                    continue
                for n_src in rng:
                    if n_src == 0:
                        w = 1.0 if term.order <= 0 else 0.0
                    else:
                        w = float(abs(n_src)) ** term.order
                    if w == 0.0:
                        continue
                    n_dst = n_src + k
                    if -N <= n_dst <= N:
                        r0 = (n_dst + N) * rows
                        c0 = (n_src + N) * cols
                        A[r0:r0 + rows, c0:c0 + cols] += w * block
    return A


def _random_face(rng, rows, cols, degree, sparse=False):
    c = {k: rng.standard_normal((rows, cols))
         + 1j * rng.standard_normal((rows, cols))
         for k in range(-degree, degree + 1)}
    if sparse:  # a zero coefficient inside the band
        c[0] = np.zeros((rows, cols), dtype=complex)
    return TrigPolyMatrix(c)


_BLOCKWISE_CASES = pytest.mark.parametrize("rows,cols,orders,N", [
    (1, 1, (0,), 5), (2, 2, (0, -1), 9), (3, 2, (1, 0, -1), 8),
    (2, 4, (-1, -2), 7), (3, 3, (2, 1), 11)])


def _blockwise_symbol(rows, cols, orders, N):
    rng = np.random.default_rng(rows * 100 + cols * 10 + N)
    return FullSymbol.of(*(
        CircleSymbol(m, _random_face(rng, rows, cols, 2, sparse=i == 1),
                     _random_face(rng, rows, cols, 1 + i % 2))
        for i, m in enumerate(orders)))


@_BLOCKWISE_CASES
def test_quantize_matches_the_blockwise_loop(rows, cols, orders, N):
    full = _blockwise_symbol(rows, cols, orders, N)
    got = quantize(full, N).matrix
    assert got.tobytes() == _quantize_blockwise(full, N).tobytes()


@_BLOCKWISE_CASES
def test_the_band_is_the_quantization(rows, cols, orders, N):
    # Q[n, k + D] is the block that mode n sends to mode n + k, zero past
    # the window; quantize and every window are its dense layout
    full = _blockwise_symbol(rows, cols, orders, N)
    Q = _band(full, N)
    modes, D = 2 * N + 1, max(t.degree for t in full.terms)
    assert Q.shape == (modes, 2 * D + 1, rows, cols)
    blocks = _quantize_blockwise(full, N).reshape(modes, rows, modes, cols)
    for n, k in itertools.product(range(modes), range(-D, D + 1)):
        want = blocks[n + k, :, n] if 0 <= n + k < modes \
            else np.zeros_like(Q[n, 0])
        assert Q[n, k + D].tobytes() == want.tobytes()
    whole = range(modes)
    assert quantize(full, N).matrix.tobytes() \
        == _layout(Q, whole, whole).tobytes()
    A = quantize(full, N).matrix
    for dst, src in ((range(0, 3), range(1, 4)), (range(2, modes), whole),
                     (range(modes - 4, modes), range(modes - 2, modes)),
                     (range(0, 2), range(modes - 2, modes))):
        want = A[dst.start * rows:dst.stop * rows,
                 src.start * cols:src.stop * cols]
        assert _layout(Q, dst, src).tobytes() == want.tobytes()


def test_quantize_rejects_small_truncation():
    s = CircleSymbol(0, TrigPolyMatrix({3: np.eye(1)}),
                     TrigPolyMatrix({3: np.eye(1)}))
    with pytest.raises(ValueError):
        quantize(s, 5)
    with pytest.raises(ValueError):
        _band(s, 6)


def test_hermitian_quantization():
    s = CircleSymbol(1, np.eye(2), -np.eye(2))
    A = quantize(s, 6)
    assert A.is_hermitian()


def test_full_symbol_orders_strictly_decrease():
    a = CircleSymbol(1, np.eye(1), -np.eye(1))
    b = CircleSymbol(0, np.eye(1), np.eye(1))
    f = FullSymbol.of(a, b)
    assert f.order == 1
    with pytest.raises(ValueError):
        FullSymbol.of(a, a)


def test_ellipticity_check_full_space():
    from etaforge.subspaces import full_subspace
    g = full_subspace(1).symbol
    z = TrigPolyMatrix({1: np.eye(1)})
    assert ellipticity_check(CircleSymbol(0, z, z), g, g)
    zero = CircleSymbol(0, np.zeros((1, 1)), np.zeros((1, 1)))
    assert not ellipticity_check(zero, g, g)


def test_ellipticity_check_rank_mismatch_is_false():
    # Im L1 has rank 2 and Im L2 rank 1: no pointwise isomorphism exists
    from etaforge.subspaces import full_subspace, trivial_subspace
    assert ellipticity_check(identity_symbol(2), full_subspace(2).symbol,
                             trivial_subspace(2, 1).symbol) is False


def test_range_basis_is_the_per_sample_eigenvector_selection():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((10, 4, 4)) + 1j * rng.standard_normal((10, 4, 4))
    V = np.linalg.qr(Z)[0][:, :, :2]
    P = V @ np.conj(np.swapaxes(V, 1, 2))
    B = _range_basis(P)
    assert B.shape == (10, 4, 2)
    for j in range(10):
        w, U = np.linalg.eigh(P[j])
        assert np.array_equal(B[j], U[:, w > 0.5])
        assert np.array_equal(_range_basis(P[j]), U[:, w > 0.5])


def test_range_basis_of_zero_and_of_rank_varying_stacks():
    assert _range_basis(np.zeros((5, 3, 3))).shape == (5, 3, 0)
    assert _range_basis(np.zeros((3, 3))).shape == (3, 0)
    assert _range_basis(np.stack([np.diag([1.0, 0.0]), np.eye(2)])) is None


def test_dump_load_roundtrip_exact():
    for sym in (identity_symbol(2), mobius_symbol(),
                CircleSymbol(1, np.eye(1), -np.eye(1))):
        text = dump_symbol(sym)
        assert text.startswith("symbol.v1")
        back = load_symbol(text)
        assert back.order == sym.order
        assert (back.plus - sym.plus).max_abs() == 0.0
        assert (back.minus - sym.minus).max_abs() == 0.0
        assert dump_symbol(back) == text


def test_load_rejects_junk():
    with pytest.raises(ValueError):
        load_symbol("not a symbol\n")


_GOOD = """symbol.v1
rank = 1
rows = 1
order = 0
degree = 1
face = +
k = 0
1.0 0.0
k = 1
0.5 -0.25
face = -
k = 0
2.0 0.0
"""


def test_load_reads_a_hand_written_document():
    sym = load_symbol(_GOOD)
    assert (sym.order, sym.rows, sym.rank, sym.degree) == (0, 1, 1, 1)
    assert sym.plus.coeff(1)[0, 0] == 0.5 - 0.25j
    assert sym.minus.coeff(0)[0, 0] == 2.0


@pytest.mark.parametrize("old, new", [
    ("rank = 1\n", ""),                       # missing rank (was KeyError)
    ("order = 0\n", ""),                      # missing order (was KeyError)
    ("rows = 1\n", ""),
    ("degree = 1\n", ""),
    ("rank = 1\n", "rank = 1\nrank = 1\n"),
    ("rank = 1", "rank = one"),
    ("rank = 1", "rank = 0"),
    ("degree = 1", "degree = 0"),              # k = 1 beyond the degree
    ("face = +\nk = 0\n", "face = +\n"),     # row before k (was TypeError)
    ("face = +\n", ""),                       # k before any face
    ("1.0 0.0", "1.0"),                        # short row (was IndexError)
    ("1.0 0.0", "1.0 0.0 3.0 0.0"),            # long row (was truncated)
    ("1.0 0.0", "1.0 zero"),
    ("0.5 -0.25\n", ""),                       # empty block
    ("0.5 -0.25\n", "0.5 -0.25\n0.5 -0.25\n"),  # extra row
    ("face = -\nk = 0\n2.0 0.0\n", ""),       # missing face (was zero)
    ("face = -", "face = *"),
    ("face = -\n", "face = +\n"),
    ("k = 1", "k = 0"),
    ("k = 1", "k = x"),
    ("rank = 1\n", "k = 0\nrank = 1\n"),
    ("2.0 0.0\n", "2.0 0.0\nrank = 1\n"),
])
def test_load_rejects_malformed_documents(old, new):
    assert old in _GOOD
    with pytest.raises(ValueError):
        load_symbol(_GOOD.replace(old, new, 1))


def _fuzz_symbols():
    rng = np.random.default_rng(5)
    rect = CircleSymbol(
        2, TrigPolyMatrix(rng.standard_normal((5, 2, 3))),
        TrigPolyMatrix(rng.standard_normal((3, 2, 3))
                       + 1j * rng.standard_normal((3, 2, 3))))
    return [identity_symbol(2), mobius_symbol(),
            CircleSymbol(1, np.eye(1), -np.eye(1)), rect]


_SYMBOLS = _fuzz_symbols()
_DOCS = [dump_symbol(s) for s in _SYMBOLS]
_WORDS = st.text(st.characters(min_codepoint=97, max_codepoint=122),
                 min_size=1, max_size=6).filter(
    lambda w: w not in ("nan", "inf", "infinity"))
_LINES = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                 min_size=1, max_size=20).filter(str.strip)


@given(st.sampled_from(_DOCS), st.data())
@settings(max_examples=300, deadline=None)
def test_load_refuses_every_single_line_mutation(doc, data):
    # dump_symbol writes every header, both faces, k = 0 on each face and
    # exactly `rows` rows per block, so no single edit of one line leaves
    # a document that parses: each must raise ValueError, never KeyError,
    # TypeError or IndexError, and never load as some other symbol
    lines = doc.splitlines()
    j = data.draw(st.integers(0, len(lines) - 1))
    edit = data.draw(st.sampled_from(
        ["delete", "repeat", "insert", "drop", "append", "junk"]))
    toks = lines[j].split()
    t = data.draw(st.integers(0, len(toks) - 1))
    if edit == "delete":
        lines[j:j + 1] = []
    elif edit == "repeat":
        lines.insert(j, lines[j])
    elif edit == "insert":
        lines.insert(j, data.draw(_LINES))
    elif edit == "drop":
        lines[j] = " ".join(toks[:t] + toks[t + 1:])
    elif edit == "append":
        lines[j] += " 0.0"
    else:
        word = data.draw(_WORDS.filter(lambda w: w != toks[t]))
        lines[j] = " ".join(toks[:t] + [word] + toks[t + 1:])
    with pytest.raises(ValueError):
        load_symbol("\n".join(lines) + "\n")


@pytest.mark.parametrize("i", range(len(_DOCS)))
def test_load_of_every_truncation(i):
    sym, doc = _SYMBOLS[i], _DOCS[i]
    minus = doc.index("face = -\n") + len("face = -\n")
    loaded = 0
    for cut in range(len(doc)):
        rest = doc[cut:]
        if cut <= minus or not (doc[cut - 1] == "\n"
                                and rest.startswith("k = ")):
            # before the first k block of the minus face, or not between
            # two k blocks: nothing may load
            with pytest.raises(ValueError):
                load_symbol(doc[:cut])
            continue
        # between two k blocks of the minus face: the symbol without the
        # blocks from the next k on
        back = load_symbol(doc[:cut])
        k_next = int(rest.split("\n", 1)[0][len("k = "):])
        kept = TrigPolyMatrix({k: sym.minus.coeff(k)
                               for k in range(-sym.minus.degree, k_next)})
        assert back.order == sym.order
        assert (back.plus - sym.plus).max_abs() == 0.0
        assert (back.minus - kept).max_abs() == 0.0
        loaded += 1
    assert loaded == doc[minus:].count("k = ") - 1


def test_load_refuses_a_document_without_its_final_newline():
    text = dump_symbol(mobius_symbol())
    load_symbol(text)
    with pytest.raises(ValueError):
        load_symbol(text[:-1])
    # a cut inside the last number leaves a row of the right length
    with pytest.raises(ValueError):
        load_symbol(text[:-2])
