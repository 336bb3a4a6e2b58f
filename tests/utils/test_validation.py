"""Validation helpers: acceptance, rejection and message quality."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive_int,
    check_probability,
    parse_shape_spec,
    shapes,
)


class TestCheckArray:
    def test_converts_lists(self):
        out = check_array([[1, 2], [3, 4]], name="x", ndim=2)
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError, match="x must be 2-dimensional"):
            check_array([1, 2, 3], name="x", ndim=2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_array([1.0, np.nan], name="x")

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_array([1.0, np.inf], name="x")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_array(["a", "b"], name="x")

    def test_min_rows(self):
        with pytest.raises(ValidationError, match="at least 5 rows"):
            check_array(np.zeros((3, 2)), name="x", min_rows=5)

    def test_allow_empty_false(self):
        with pytest.raises(ValidationError, match="must not be empty"):
            check_array(np.zeros((0, 3)), name="x", allow_empty=False)

    def test_shape_wildcards(self):
        out = check_array(np.zeros((4, 3)), name="x", shape=(None, 3))
        assert out.shape == (4, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="size 3 along axis 1"):
            check_array(np.zeros((4, 2)), name="x", shape=(None, 3))

    def test_shape_rank_mismatch(self):
        with pytest.raises(ValidationError, match="must be 2-dimensional"):
            check_array(np.zeros(4), name="x", shape=(None, 3))

    def test_error_names_parameter(self):
        with pytest.raises(ValidationError, match="my_matrix"):
            check_array(np.zeros(3), name="my_matrix", ndim=2)


class TestCheckPositiveInt:
    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(4), name="n") == 4

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, name="n")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.0, name="n")

    def test_minimum(self):
        assert check_positive_int(0, name="n", minimum=0) == 0
        with pytest.raises(ValidationError, match=">= 2"):
            check_positive_int(1, name="n", minimum=2)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, name="p", low=0.0, high=1.0) == 0.0
        assert check_in_range(1.0, name="p", low=0.0, high=1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, name="p", low=0.0, high=1.0, inclusive_low=False)
        with pytest.raises(ValidationError):
            check_in_range(1.0, name="p", low=0.0, high=1.0, inclusive_high=False)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            check_in_range(float("nan"), name="p", low=0.0, high=1.0)

    def test_rejects_non_number(self):
        with pytest.raises(ValidationError):
            check_in_range(object(), name="p", low=0.0, high=1.0)

    def test_probability_shortcut(self):
        assert check_probability(0.5, name="p") == 0.5
        with pytest.raises(ValidationError):
            check_probability(1.5, name="p")


class TestCheckArrayEdges:
    def test_empty_array_allowed_by_default(self):
        out = check_array(np.zeros((0, 3)), name="x", ndim=2)
        assert out.shape == (0, 3)

    def test_dtype_coercion_from_int(self):
        out = check_array(np.arange(4, dtype=np.int32), name="x")
        assert out.dtype == np.float64

    def test_dtype_none_preserves_input_dtype(self):
        out = check_array(np.arange(4, dtype=np.int32), name="x", dtype=None)
        assert out.dtype == np.int32

    def test_all_wildcard_shape(self):
        out = check_array(np.zeros((7, 2)), name="x", shape=(None, None))
        assert out.shape == (7, 2)

    def test_allow_non_finite_accepts_nan(self):
        out = check_array([1.0, np.nan, np.inf], name="x", allow_non_finite=True)
        assert np.isnan(out[1]) and np.isinf(out[2])

    def test_allow_non_finite_still_checks_shape(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            check_array([1.0, np.nan], name="x", ndim=2, allow_non_finite=True)

    def test_scalar_input_becomes_0d(self):
        out = check_array(3.0, name="x")
        assert out.ndim == 0

    def test_min_rows_on_exact_boundary(self):
        out = check_array(np.zeros((5, 2)), name="x", min_rows=5)
        assert out.shape == (5, 2)


class TestParseShapeSpec:
    def test_symbols_and_ints(self):
        assert parse_shape_spec("(n, d)") == ("n", "d")
        assert parse_shape_spec("(w, 3)") == ("w", 3)

    def test_one_dim_trailing_comma(self):
        assert parse_shape_spec("(n,)") == ("n",)

    def test_wildcard_and_ellipsis(self):
        assert parse_shape_spec("(*, d)") == (None, "d")
        assert parse_shape_spec("(..., 3)") == (Ellipsis, 3)
        assert parse_shape_spec("(n, ...)") == ("n", Ellipsis)

    def test_scalar_spec(self):
        assert parse_shape_spec("()") == ()

    def test_rejects_unparenthesized(self):
        with pytest.raises(ValidationError, match="parenthesized"):
            parse_shape_spec("n, d")

    def test_rejects_non_string(self):
        with pytest.raises(ValidationError, match="must be a string"):
            parse_shape_spec(3)

    def test_rejects_two_ellipses(self):
        with pytest.raises(ValidationError):
            parse_shape_spec("(..., n, ...)")

    def test_rejects_garbage_token(self):
        with pytest.raises(ValidationError):
            parse_shape_spec("(n, d!)")


class TestShapesDecorator:
    def test_accepts_matching_shapes(self):
        @shapes(x="(n, d)", centers="(c, d)")
        def f(x, centers):
            return x.shape[0]

        assert f(np.zeros((4, 3)), np.zeros((2, 3))) == 4

    def test_rejects_wrong_rank(self):
        @shapes(x="(n, d)")
        def f(x):
            return x

        with pytest.raises(ValidationError, match=r"2 dimension\(s\)"):
            f(np.zeros(4))

    def test_symbol_must_agree_across_parameters(self):
        @shapes(x="(n, d)", centers="(c, d)")
        def f(x, centers):
            return x

        with pytest.raises(ValidationError, match="d"):
            f(np.zeros((4, 3)), np.zeros((2, 5)))

    def test_symbol_must_agree_within_one_spec(self):
        @shapes(x="(n, n)")
        def f(x):
            return x

        f(np.eye(3))
        with pytest.raises(ValidationError):
            f(np.zeros((2, 3)))

    def test_fixed_int_dimension(self):
        @shapes(window="(w, 3)")
        def f(window):
            return window

        f(np.zeros((10, 3)))
        with pytest.raises(ValidationError, match="expected size 3"):
            f(np.zeros((10, 2)))

    def test_ellipsis_matches_any_leading_dims(self):
        @shapes(angles="(..., 3)")
        def f(angles):
            return angles

        f(np.zeros(3))
        f(np.zeros((5, 3)))
        f(np.zeros((2, 5, 3)))
        with pytest.raises(ValidationError):
            f(np.zeros((5, 2)))

    def test_none_values_are_skipped(self):
        @shapes(x="(n, d)")
        def f(x=None):
            return x

        assert f(None) is None
        assert f() is None

    def test_works_with_keyword_arguments(self):
        @shapes(x="(n,)")
        def f(*, x):
            return x

        with pytest.raises(ValidationError):
            f(x=np.zeros((2, 2)))

    def test_keyword_only_contract(self):
        @shapes(x="(n, d)", weights="(n,)")
        def f(x, *, weights=None):
            return x

        f(np.zeros((4, 3)), weights=np.ones(4))
        with pytest.raises(ValidationError, match="weights"):
            f(np.zeros((4, 3)), weights=np.ones(5))
        # A keyword-only parameter cannot be passed by position.
        with pytest.raises(TypeError):
            f(np.zeros((4, 3)), np.ones(4))

    def test_parameter_left_at_default_is_skipped(self):
        @shapes(x="(n, d)", scale="(d,)")
        def f(x, scale=np.ones(7)):
            return x

        # The default violates the contract, but a default is never checked.
        f(np.zeros((4, 3)))
        f(np.zeros((4, 3)), np.ones(3))
        with pytest.raises(ValidationError, match="scale"):
            f(np.zeros((4, 3)), scale=np.ones(7))

    def test_rejected_call_raises_type_error_before_contract(self):
        @shapes(x="(n, d)")
        def f(x, y=None):
            return x

        with pytest.raises(TypeError):
            f(np.zeros(4), x=np.zeros((2, 2)))  # x given twice
        with pytest.raises(TypeError):
            f(np.zeros(4), 1, 2)  # too many positional arguments
        with pytest.raises(TypeError):
            f(np.zeros((2, 2)), ghost=1)

    def test_variadic_parameter_rejected_at_decoration_time(self):
        with pytest.raises(ValidationError, match="variadic"):
            @shapes(arrays="(n,)")
            def f(*arrays):
                return arrays

    def test_unknown_parameter_rejected_at_decoration_time(self):
        with pytest.raises(ValidationError, match="unknown parameter"):
            @shapes(ghost="(n,)")
            def f(x):
                return x

    def test_preserves_metadata_and_exposes_contracts(self):
        @shapes(x="(n, d)")
        def f(x):
            """Docstring kept."""
            return x

        assert f.__name__ == "f"
        assert f.__doc__ == "Docstring kept."
        assert f.__shape_contracts__ == {"x": "(n, d)"}

    def test_accepts_lists_via_np_shape(self):
        @shapes(x="(n, 2)")
        def f(x):
            return np.asarray(x)

        assert f([[1, 2], [3, 4]]).shape == (2, 2)

    def test_error_names_parameter_and_spec(self):
        @shapes(membership="(w, c)")
        def f(membership):
            return membership

        with pytest.raises(ValidationError, match=r"membership.*\(w, c\)"):
            f(np.zeros((2, 3, 4)))
