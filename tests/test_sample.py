import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import kgo
from kgo.errors import DataError, DimensionError, NumericalError
from kgo.sample import read_table


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadSample:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path, "-1,-1\n0,0\n1,1\n")
        s = kgo.load_sample(path, "x=0;f=1")
        assert s.size == 3
        np.testing.assert_array_equal(s.weights, np.ones(3))
        np.testing.assert_array_equal(s.x_rows[:, 0], [-1, 0, 1])

    def test_aliased_columns(self, tmp_path):
        path = write(tmp_path, "-1,-1\n0,0\n1,1\n")
        s = kgo.load_sample(path, "x=0;f=0")
        np.testing.assert_array_equal(s.f_rows, s.x_rows)

    def test_malformed_row_names_row(self, tmp_path):
        path = write(tmp_path, "1,2\n1,oops\n3,4\n")
        with pytest.raises(DataError, match="row 2"):
            kgo.load_sample(path, "x=0;f=1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            kgo.load_sample(str(tmp_path / "absent.csv"), "x=0;f=1")

    def test_weight_column_and_comments(self, tmp_path):
        path = write(tmp_path, "# header\n1,2,0.5\n3,4,1.5\n")
        s = kgo.load_sample(path, "x=0;f=1;w=2")
        np.testing.assert_array_equal(s.weights, [0.5, 1.5])

    @pytest.mark.parametrize("text", ["-1,-1,0.5\n0,0,1\n1,1,2\n", "# x,f,w\n-1,-1,0.5\n1,1,2\n"],
                             ids=["data-first", "comment-first"])
    def test_byte_order_mark_ignored(self, tmp_path, text):
        """A file saved as "CSV UTF-8" starts with a byte-order mark; it reads as the plain file."""
        plain = write(tmp_path, text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        columns = [0, 1, 2]
        np.testing.assert_array_equal(read_table(marked, columns), read_table(plain, columns))
        want, got = kgo.load_sample(plain, "x=0;f=1;w=2"), kgo.load_sample(marked, "x=0;f=1;w=2")
        for name in ("x_rows", "f_rows", "weights"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_weight_overlap_rejected(self):
        with pytest.raises(DataError):
            kgo.parse_column_spec("x=0-1;f=2;w=1")

    def test_empty_selection(self, tmp_path):
        path = write(tmp_path, "# only a comment\n")
        with pytest.raises(DataError):
            kgo.load_sample(path, "x=0;f=1")

    def test_column_out_of_range(self, tmp_path):
        path = write(tmp_path, "1,2\n")
        with pytest.raises(DataError):
            kgo.load_sample(path, "x=0;f=5")

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "1,2\n1,2,3\n")
        with pytest.raises(DataError):
            kgo.load_sample(path, "x=0;f=1")

    @pytest.mark.parametrize("text, message", [
        ("1,2\n1,inf\n3,4\n5,6\n1,oops\n", "malformed value in row 5"),
        ("1,2\n1,nan\n3,4,5\n", "ragged row 3: expected 2 fields"),
        ("1,2\n1,-inf\n3,4\n", "non-finite value in row 2")],
        ids=["malformed-before-non-finite", "ragged-before-non-finite", "non-finite"])
    def test_defect_order(self, tmp_path, text, message):
        """Of several defects a file reports the malformed value first, then a
        ragged row, then a non-finite value, whatever their rows."""
        with pytest.raises(DataError, match=f"^{message}$"):
            kgo.load_sample(write(tmp_path, text), "x=0;f=1")


class TestColumnSpec:
    def test_ranges(self):
        assert kgo.parse_column_spec("x=0-6;f=7-8;w=9") == (
            list(range(7)), [7, 8], 9)

    @pytest.mark.parametrize("bad", ["x=0", "f=1", "x=a;f=1", "x=3-1;f=0",
                                     "x=0;x=1;f=2", "q=0;f=1;x=2", "x=0;f=1;w=2-3"])
    def test_rejects(self, bad):
        with pytest.raises(DataError):
            kgo.parse_column_spec(bad)


def product_attributes(raw, order, mode="exact"):
    """Producted monomials of one raw row, through the batched design matrix."""
    spec = kgo.BasisSpec("monomial", order, mode=mode)
    return kgo.design_matrix(spec, np.atleast_2d(raw))[0]


class TestProductAttributes:
    def test_exact_count(self):
        out = product_attributes(np.ones(3), 2, "exact")
        assert out.shape[0] == 6  # C(4, 2)

    def test_order_zero(self):
        np.testing.assert_array_equal(product_attributes([3.0, 4.0], 0), [1.0])

    def test_lexicographic_values(self):
        np.testing.assert_allclose(product_attributes([2.0, 3.0], 2), [4.0, 6.0, 9.0])

    def test_dimension_cap(self):
        # 10 variables at exact order 8 give 24310 columns, above the cap of 10000.
        with pytest.raises(DimensionError):
            product_attributes(np.ones(10), 8, "exact")

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("order", range(6))
    def test_counts_match_closed_form(self, n, order):
        for mode in ("exact", "up_to"):
            listed = sum(1 for _ in kgo.multi_indices(n, order, mode))
            assert listed == kgo.producted_dimension(n, order, mode)
            assert product_attributes(np.ones(n), order, mode).shape[0] == listed

    def test_up_to_constant_first(self):
        indices = list(kgo.multi_indices(3, 2, "up_to"))
        assert indices[0] == (0, 0, 0)
        degrees = [sum(i) for i in indices]
        assert degrees == sorted(degrees)

    @pytest.mark.parametrize("mode", ["exact", "up_to"])
    def test_matches_reference_enumeration(self, mode):
        # Every exponent tuple of each degree, in descending lexicographic
        # order: (2,0) before (1,1) before (0,2).
        for n in range(1, 5):
            for order in range(7):
                degrees = range(order + 1) if mode == "up_to" else [order]
                want = [t for degree in degrees
                        for t in sorted((t for t in product(range(degree + 1), repeat=n)
                                         if sum(t) == degree), reverse=True)]
                assert list(kgo.multi_indices(n, order, mode)) == want

    def test_enumeration_errors(self):
        with pytest.raises(DimensionError, match="at least one variable"):
            list(kgo.multi_indices(0, 2))
        with pytest.raises(DataError, match="unknown producting mode"):
            list(kgo.multi_indices(2, 2, "below"))


def loop_design(spec, rows):
    """Per-column reference: each column a product of per-variable factors."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    sel = rows if spec.source is None else rows[:, list(spec.source)]
    if spec.kind == "chebyshev":
        lo, hi = (np.asarray(v, dtype=float) for v in spec.scale)
        t = (2.0 * sel - (lo + hi)) / (hi - lo)
        per_var = []
        for j in range(sel.shape[1]):
            cols = [np.ones(rows.shape[0]), t[:, j]]
            for _ in range(2, spec.product_order + 1):
                cols.append(2.0 * t[:, j] * cols[-1] - cols[-2])
            per_var.append(cols)
    out = []
    for idx in kgo.multi_indices(sel.shape[1], spec.product_order, spec.mode):
        col = np.ones(rows.shape[0])
        for j, k in enumerate(idx):
            if k:
                col = col * (per_var[j][k] if spec.kind == "chebyshev" else sel[:, j] ** k)
        out.append(col)
    return np.column_stack(out)


class TestDesignMatrix:
    @pytest.mark.parametrize("kind", ["monomial", "chebyshev"])
    @pytest.mark.parametrize("mode", ["up_to", "exact"])
    @pytest.mark.parametrize("source", [None, (2, 0)])
    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_matches_per_column_loop(self, kind, mode, source, order):
        from kgo.linalg import _ROW_BLOCK
        rng = np.random.default_rng(order)
        rows = rng.uniform(-1.5, 1.5, size=(2 * _ROW_BLOCK + 7, 3))
        spec = kgo.with_scale(kgo.BasisSpec(kind, order, source=source, mode=mode), rows)
        design = kgo.design_matrix(spec, rows)
        np.testing.assert_array_equal(design, loop_design(spec, rows))
        for i in (0, _ROW_BLOCK, rows.shape[0] - 1):
            np.testing.assert_array_equal(kgo.evaluate_basis(spec, rows[i]), design[i])


def loop_design_zero_span(spec, rows):
    """loop_design with the documented zero-span rule: a variable that is
    constant over the training rows maps to the Chebyshev argument 0."""
    lo, hi = (np.asarray(v, dtype=float) for v in spec.scale)
    live = hi > lo
    unit = replace(spec, scale=(np.where(live, lo, -1.0), np.where(live, hi, 1.0)))
    rows = np.array(rows, dtype=float)
    sel = rows if spec.source is None else rows[:, list(spec.source)]
    sel[:, ~live] = 0.0  # t = x on the unit interval, so a zero argument
    if spec.source is None:
        return loop_design(unit, sel)
    rows[:, list(spec.source)] = sel
    return loop_design(unit, rows)


class TestBasisPlan:
    """The per-spec plan against the per-column reference, bit for bit."""

    def test_zero_span_column(self):
        rng = np.random.default_rng(11)
        train = np.column_stack([rng.uniform(-2.0, 3.0, 50), np.full(50, 4.5),
                                 rng.uniform(0.0, 1.0, 50)])
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 5), train)
        assert spec.scale[0][1] == spec.scale[1][1]
        queries = np.column_stack([rng.uniform(-2.0, 3.0, 9), rng.uniform(-9.0, 9.0, 9),
                                   rng.uniform(0.0, 1.0, 9)])
        for rows in (train, queries):
            design = kgo.design_matrix(spec, rows)
            np.testing.assert_array_equal(design, loop_design_zero_span(spec, rows))
            # The constant variable contributes T_k(0) to every column.
            np.testing.assert_array_equal(
                design, kgo.design_matrix(spec, np.column_stack([rows[:, 0], np.full(len(rows), 4.5),
                                                                 rows[:, 2]])))

    def test_zero_span_with_source(self):
        train = np.array([[1.0, 7.0, -1.0], [2.0, 7.0, 0.5], [0.5, 7.0, 3.0]])
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 3, source=(2, 1)), train)
        queries = np.array([[0.0, 6.0, 1.0], [9.0, -7.0, 5.0]])
        np.testing.assert_array_equal(kgo.design_matrix(spec, queries),
                                      loop_design_zero_span(spec, queries))

    def test_queries_outside_training_range(self):
        rng = np.random.default_rng(12)
        train = rng.uniform(-1.0, 1.0, size=(40, 2))
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 6), train)
        outside = rng.uniform(-4.0, 4.0, size=(25, 2))
        outside[0] = (-4.0, 4.0)
        design = kgo.design_matrix(spec, outside)
        np.testing.assert_array_equal(design, loop_design(spec, outside))
        assert np.abs(design).max() > 1.0
        for i in (0, 24):
            np.testing.assert_array_equal(kgo.evaluate_basis(spec, outside[i]), design[i])

    def test_replaced_scale_gets_its_own_plan(self):
        rng = np.random.default_rng(13)
        rows = rng.uniform(-1.0, 1.0, size=(30, 2))
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 4), rows)
        before = kgo.design_matrix(spec, rows)  # builds spec's plan
        wider = replace(spec, scale=(spec.scale[0] - 1.0, spec.scale[1] + 1.0))
        after = kgo.design_matrix(wider, rows)
        np.testing.assert_array_equal(after, loop_design(wider, rows))
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(kgo.design_matrix(spec, rows), before)
        assert wider._plan is not spec._plan

    @pytest.mark.parametrize("width", [1, 3])
    def test_scale_width_must_match_rows(self, width):
        rows = np.random.default_rng(14).uniform(-1.0, 1.0, size=(30, 2))
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 3), rows)
        query = np.zeros((4, width))
        with pytest.raises(DimensionError, match=f"covers 2 variables, rows have {width}"):
            kgo.design_matrix(spec, query)
        with pytest.raises(DimensionError, match="covers 2 variables"):
            kgo.evaluate_basis(spec, query[0])

    def test_scalar_scale_broadcasts(self):
        rows = np.random.default_rng(15).uniform(-1.0, 1.0, size=(30, 3))
        scalar = kgo.BasisSpec("chebyshev", 3, scale=(-1.0, 1.0))
        per_source = kgo.BasisSpec("chebyshev", 3, scale=(np.full(3, -1.0), np.full(3, 1.0)))
        design = kgo.design_matrix(scalar, rows)
        np.testing.assert_array_equal(design, kgo.design_matrix(per_source, rows))
        zero_span = kgo.BasisSpec("chebyshev", 3, scale=(0.5, 0.5))
        for spec, want in ((scalar, design), (per_source, design),
                           (zero_span, kgo.design_matrix(zero_span, rows))):
            for i, row in enumerate(rows):  # one-row blocks
                assert kgo.evaluate_basis(spec, row).tobytes() == want[i].tobytes()


class TestEvaluateBasis:
    def test_monomial_powers(self):
        spec = kgo.BasisSpec("monomial", 2)
        np.testing.assert_allclose(kgo.evaluate_basis(spec, [0.5]), [1.0, 0.5, 0.25])

    def test_chebyshev_degree_two(self):
        spec = kgo.BasisSpec("chebyshev", 2,
                             scale=(np.array([-1.0]), np.array([1.0])))
        np.testing.assert_allclose(kgo.evaluate_basis(spec, [0.5]), [1.0, 0.5, -0.5])

    def test_constant_basis(self):
        spec = kgo.BasisSpec("monomial", 0)
        for v in (-3.0, 0.0, 11.0):
            np.testing.assert_array_equal(kgo.evaluate_basis(spec, [v]), [1.0])

    def test_constant_component_always_one(self):
        rng = np.random.default_rng(1)
        for kind in ("monomial", "chebyshev"):
            spec = kgo.BasisSpec(kind, 3)
            spec = kgo.with_scale(spec, rng.normal(size=(20, 2)))
            for row in rng.normal(size=(5, 2)):
                vec = kgo.evaluate_basis(spec, row)
                assert vec[spec.constant_index] == pytest.approx(1.0)

    def test_source_out_of_range(self):
        spec = kgo.BasisSpec("monomial", 1, source=(3,))
        with pytest.raises(DimensionError):
            kgo.evaluate_basis(spec, [1.0, 2.0])

    @pytest.mark.parametrize("case", ["zero-span", "source", "exact", "outside", "monomial"])
    def test_equals_design_rows_byte_for_byte(self, case):
        rng = np.random.default_rng(21)
        train = rng.uniform(-1.0, 1.0, size=(40, 3))
        queries = rng.uniform(-1.0, 1.0, size=(12, 3))
        spec = kgo.BasisSpec("chebyshev", 7)
        if case == "zero-span":
            train[:, 1] = 0.25
        elif case == "source":
            spec = replace(spec, source=(2, 0))
            train[:, 0] = -0.5  # a zero-span variable among the sources
        elif case == "exact":
            spec = replace(spec, mode="exact")
        elif case == "outside":
            queries *= 3.0  # |t| > 1, where T_k grows
        else:
            spec = kgo.BasisSpec("monomial", 5, source=(1, 2))
        spec = kgo.with_scale(spec, train)
        for rows in (train, queries):
            design = kgo.design_matrix(spec, rows)
            for i, row in enumerate(rows):
                feats = kgo.evaluate_basis(spec, row)
                assert feats.shape == design[i].shape
                assert feats.tobytes() == design[i].tobytes()
                # Every form of one row is that row: a list, a 1 x width matrix.
                assert kgo.evaluate_basis(spec, row.tolist()).tobytes() == design[i].tobytes()
                assert kgo.evaluate_basis(spec, row[None]).tobytes() == design[i].tobytes()
        if case == "outside":
            assert np.abs(design).max() > 1.0

    @pytest.mark.parametrize("order", [0, 1, 2, 10])
    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    @pytest.mark.parametrize("case", ["up_to", "exact", "source", "zero-span"])
    def test_one_row_recurrence_equals_design_rows(self, order, n_vars, case):
        """A single query row's float argument map and recurrence give the bits of a block's."""
        rng = np.random.default_rng([order, n_vars])
        train = rng.uniform(-2.0, 3.0, size=(40, 4))
        spec = kgo.BasisSpec("chebyshev", order, mode="exact" if case == "exact" else "up_to")
        if case in ("source", "zero-span"):
            spec = replace(spec, source=(3, 1, 0)[:n_vars])
        else:
            train = train[:, :n_vars]
        if case == "zero-span":
            train[:, 3] = 0.75  # the first source
        spec = kgo.with_scale(spec, train)
        queries = np.concatenate([train[:6], 4.0 * train[6:12]])  # |t| > 1 in the second half
        design = kgo.design_matrix(spec, queries)  # one block of 12 rows
        for i, row in enumerate(queries):
            assert kgo.evaluate_basis(spec, row).tobytes() == design[i].tobytes()
        if order and not (case == "zero-span" and n_vars == 1):
            assert np.abs(design[6:]).max() > 1.0

    def test_one_row_last_block(self):
        """A design whose last block is one row takes the block's ufuncs there, with the
        reference loop's bits."""
        from kgo.linalg import _ROW_BLOCK
        rows = np.random.default_rng(23).uniform(-1.5, 1.5, size=(_ROW_BLOCK + 1, 3))
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 6, source=(2, 0)), rows)
        rows[-1] = (2.5, 0.0, -2.0)  # outside the scale: |t| > 1 in the last block
        design = kgo.design_matrix(spec, rows)
        assert np.abs(design[-1]).max() > 1.0
        assert design.tobytes() == loop_design(spec, rows).tobytes()

    @pytest.mark.parametrize("raw", [[1e40], [-1e40], [3.0, -1e40], [np.nan], [0.5, np.nan],
                                     [1e40, 0.0]])
    def test_one_row_overflow_raises_without_warning(self, raw):
        """T_k past the float range gives inf or NaN in the one-row recurrence, silently,
        and raises there, before the gather could multiply it by T_1(0) = 0 (no
        np.errstate here)."""
        spec = kgo.BasisSpec("chebyshev", 10, scale=(-1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="^basis evaluation produced non-finite values$"):
                kgo.evaluate_basis(spec, raw)

    @pytest.mark.parametrize("spec, rows", [
        (kgo.BasisSpec("chebyshev", 10, scale=(-1.0, 1.0)), [[1e40], [0.5]]),
        (kgo.BasisSpec("chebyshev", 10, scale=(-1.0, 1.0)), [[1e40, 0.0], [0.5, 0.5]]),
        (kgo.BasisSpec("chebyshev", 10, scale=(-1.0, 1.0)), [[0.5, 1e40], [1e40, 0.0]]),
        (kgo.BasisSpec("monomial", 4), [[1e100], [0.5]]),
        (kgo.BasisSpec("monomial", 4), [[0.5, 1e200], [0.0, 1e200]]),
        (kgo.BasisSpec("chebyshev", 10, scale=(-1.0, 1.0)), [[1e40]]),
    ])
    def test_batch_overflow_raises_without_warning(self, spec, rows):
        """A block of rows, one or more, evaluates under np.errstate, so neither its
        recurrence nor an inf * 0 in its gather warns before the finiteness check."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="^basis evaluation produced non-finite values$"):
                kgo.design_matrix(spec, rows)

    def test_unscaled_chebyshev_row_matches_design(self):
        """Without a scale the argument is the raw value (`row_argument` returns it as given)."""
        rows = np.array([[0.3], [-0.9], [1.0], [1.7], [-3.25], [12.5]])
        spec = kgo.BasisSpec("chebyshev", 6)
        design = kgo.design_matrix(spec, rows)
        assert np.abs(design[3:]).max() > 1.0
        for row, expected in zip(rows, design):
            assert kgo.evaluate_basis(spec, row).tobytes() == expected.tobytes()

    def test_one_row_takes_no_ufunc_per_order(self, monkeypatch):
        """A single Chebyshev query row calls no np.multiply or np.subtract; a
        block still runs its argument map and recurrence on arrays."""
        from kgo.linalg import _ROW_BLOCK
        calls = {"multiply": 0, "subtract": 0}

        def counted(name):
            original = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(np, name, wrapper)

        rows = np.random.default_rng(24).uniform(-1.0, 1.0, size=(_ROW_BLOCK, 2))
        spec = kgo.with_scale(kgo.BasisSpec("chebyshev", 10), rows)
        for name in calls:
            counted(name)
        kgo.evaluate_basis(spec, rows[0])
        assert calls == {"multiply": 0, "subtract": 0}
        calls.update(multiply=0, subtract=0)
        kgo.design_matrix(spec, rows)
        assert calls == {"multiply": 10, "subtract": 10}  # argument map + 9 orders

    def test_first_row_of_a_batch(self):
        """A 2-D input gives its first row and raises what design_matrix raises on it."""
        spec = kgo.BasisSpec("chebyshev", 3, scale=(-1.0, 1.0))
        rows = np.array([[0.5, -0.25], [0.1, 0.9]])
        assert kgo.evaluate_basis(spec, rows).tobytes() == kgo.design_matrix(spec, rows)[0].tobytes()
        rows[1, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            kgo.evaluate_basis(spec, rows)
        np.testing.assert_array_equal(kgo.evaluate_basis(spec, 0.5), [1.0, 0.5, -0.5, -1.0])

    # (spec, raw, error, message): each failure design_matrix raises on the row,
    # and where two apply, the one it raises first.
    FAILURES = [
        (kgo.BasisSpec("monomial", 8, mode="exact"), np.ones(10), DimensionError,
         "producted dimension 24310 exceeds cap 10000"),
        (kgo.BasisSpec("chebyshev", 8, mode="exact", scale=(-1.0, 1.0)), np.full(10, np.nan),
         DimensionError, "producted dimension 24310 exceeds cap 10000"),
        (kgo.BasisSpec("chebyshev", 3, scale=(-1.0, 1.0)), [0.5, np.nan], NumericalError,
         "basis evaluation produced non-finite values"),
        (kgo.BasisSpec("monomial", 2), [np.inf], NumericalError,
         "basis evaluation produced non-finite values"),
        (kgo.BasisSpec("monomial", 4), [1e100], NumericalError,
         "basis evaluation produced non-finite values"),
        (kgo.BasisSpec("chebyshev", 3, scale=(np.zeros(2), np.ones(2))), [0.5, 0.2, 0.1],
         DimensionError, "basis scale covers 2 variables, rows have 3"),
        (kgo.BasisSpec("chebyshev", 3, scale=(np.zeros(2), np.ones(2))), [np.nan, 0.2, 0.1],
         DimensionError, "basis scale covers 2 variables, rows have 3"),
        (kgo.BasisSpec("monomial", 1, source=(3,)), [1.0, 2.0], DimensionError,
         "source column 3 out of range for width 2"),
        (kgo.BasisSpec("chebyshev", 2, source=(0, 4), scale=(np.zeros(3), np.ones(3))),
         [1.0, 2.0], DimensionError, "source column 4 out of range for width 2"),
    ]

    @pytest.mark.parametrize("spec, raw, error, message", FAILURES)
    def test_raises_what_design_matrix_raises(self, spec, raw, error, message):
        for evaluate in (kgo.design_matrix, kgo.evaluate_basis):
            with pytest.raises(error, match=f"^{message}$"):
                evaluate(spec, raw)
            with pytest.raises(error, match=f"^{message}$"):  # once more, with a plan
                evaluate(spec, raw)

    def test_plan_resolves_a_width_once(self, monkeypatch):
        """Repeated rows of one width resolve the dimension and the gathers once."""
        calls = {"producted_dimension": 0, "_exponent_table": 0}

        def counted(name):
            original = getattr(kgo.sample, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(kgo.sample, name, wrapper)

        for name in calls:
            counted(name)
        spec = kgo.BasisSpec("chebyshev", 6, scale=(-1.0, 1.0))
        rows = np.random.default_rng(22).uniform(-1.0, 1.0, size=(100, 2))
        for row in rows:
            kgo.evaluate_basis(spec, row)
        assert calls == {"producted_dimension": 1, "_exponent_table": 1}
        kgo.evaluate_basis(spec, [0.5])  # another width, resolved on its own
        assert calls == {"producted_dimension": 2, "_exponent_table": 2}


class TestSampleInvariants:
    def test_rejects_negative_weights(self):
        with pytest.raises(DataError):
            kgo.Sample([[1.0]], [[1.0]], [-1.0])

    def test_rejects_zero_total_weight(self):
        with pytest.raises(DataError):
            kgo.Sample([[1.0]], [[1.0]], [0.0])

    def test_rejects_count_mismatch(self):
        with pytest.raises(DimensionError):
            kgo.Sample([[1.0], [2.0]], [[1.0]], [1.0, 1.0])


class TestBasisSpecIntegers:
    @pytest.mark.parametrize("fields, message", [
        (dict(product_order=2.5), "product order must be an integer, got 2.5"),
        (dict(product_order=True), "product order must be an integer, got True"),
        (dict(product_order=np.nan), "product order must be an integer, got nan"),
        (dict(source=(0.5,)), "source column must be an integer, got 0.5"),
        (dict(source=(0, False)), "source column must be an integer, got False"),
        (dict(source=(-1,)), "source column must be nonnegative"),
        (dict(constant_index=1.0), "constant index must be an integer, got 1.0"),
        (dict(constant_index=-1), "constant index must be nonnegative")],
        ids=["order-fraction", "order-bool", "order-nan", "source-fraction", "source-bool",
             "source-negative", "constant-float", "constant-negative"])
    def test_refused(self, fields, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            kgo.BasisSpec("monomial", **{"product_order": 2, **fields})

    def test_numpy_integers_become_ints(self):
        spec = kgo.BasisSpec("monomial", np.int64(2), source=np.array([1, 0]),
                             constant_index=np.int32(0))
        assert (spec.product_order, spec.source, spec.constant_index) == (2, (1, 0), 0)
        assert all(type(value) is int for value in (spec.product_order, *spec.source,
                                                    spec.constant_index))

    @pytest.mark.parametrize("index", [3, 99])
    def test_constant_index_past_the_basis_refused(self, index):
        sample = kgo.Sample(np.linspace(-1.0, 1.0, 9)[:, None], np.ones((9, 1)), np.ones(9))
        with pytest.raises(DimensionError, match=f"^constant index {index} out of range for "
                                                 "basis dimension 3$"):
            kgo.fit(sample, kgo.BasisSpec("monomial", 2, constant_index=index),
                    kgo.BasisSpec("monomial", 1))
