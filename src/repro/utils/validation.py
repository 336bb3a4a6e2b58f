"""Input validation helpers used throughout the library.

These keep the validation wording consistent and make the error paths
testable: every helper raises :class:`repro.errors.ValidationError` with a
message naming the offending parameter.

Shape contracts
---------------
:func:`shapes` declares the expected array shapes of a function's parameters
with a tiny DSL and enforces them at call time::

    @shapes(x="(n, d)", centers="(c, d)")
    def assign(x, centers): ...

Each spec is a parenthesized, comma-separated list of dimension tokens:

``n`` (identifier)
    A symbolic size.  The same symbol appearing in several specs (or twice
    in one spec) must resolve to the same size at call time — above, ``x``
    and ``centers`` must agree on ``d``.
``3`` (integer)
    A fixed size.
``*``
    Any size (anonymous wildcard).
``...``
    Any number of leading/trailing dimensions (at most one per spec), so
    ``"(..., 3)"`` accepts every array whose last axis has size 3.

Parameters whose value is ``None`` are skipped, which keeps the decorator
friendly to ``Optional[np.ndarray]`` arguments, and so are parameters left
at their default.  The linter's R5 rule
(:mod:`repro.lint`) recognizes the decorator as a declared shape contract
and statically cross-checks that contracted names exist and specs parse.
"""

from __future__ import annotations

import functools
import inspect
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "check_array",
    "check_positive_int",
    "check_probability",
    "check_in_range",
    "parse_shape_spec",
    "shapes",
]


def check_array(
    value,
    *,
    name: str,
    ndim: Optional[int] = None,
    dtype=np.float64,
    min_rows: int = 0,
    allow_empty: bool = True,
    shape: Optional[Sequence[Optional[int]]] = None,
    allow_non_finite: bool = False,
) -> np.ndarray:
    """Coerce ``value`` to a numpy array and validate its shape.

    Parameters
    ----------
    value:
        Anything ``np.asarray`` accepts.
    name:
        Parameter name used in error messages.
    ndim:
        Required number of dimensions, if any.
    dtype:
        dtype to coerce to (``None`` keeps the input dtype).
    min_rows:
        Minimum length along axis 0.
    allow_empty:
        If ``False``, reject arrays with zero elements.
    shape:
        Optional per-axis size constraints; ``None`` entries are wildcards.
    allow_non_finite:
        If ``True``, NaN/inf values pass; the default rejects them.  Mocap
        paths use this where NaN encodes marker occlusion by design.

    Returns
    -------
    numpy.ndarray
        The validated (possibly converted) array.
    """
    try:
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} could not be converted to an array: {exc}") from exc
    if not np.issubdtype(arr.dtype, np.number) and not np.issubdtype(arr.dtype, np.bool_):
        raise ValidationError(f"{name} must be numeric, got dtype {arr.dtype}")
    if (
        not allow_non_finite
        and np.issubdtype(arr.dtype, np.floating)
        and not np.all(np.isfinite(arr))
    ):
        raise ValidationError(f"{name} contains non-finite values (NaN or inf)")
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if arr.ndim >= 1 and arr.shape[0] < min_rows:
        raise ValidationError(
            f"{name} must have at least {min_rows} rows, got {arr.shape[0]}"
        )
    if shape is not None:
        if len(shape) != arr.ndim:
            raise ValidationError(
                f"{name} must be {len(shape)}-dimensional, got shape {arr.shape}"
            )
        for axis, (want, have) in enumerate(zip(shape, arr.shape)):
            if want is not None and want != have:
                raise ValidationError(
                    f"{name} must have size {want} along axis {axis}, got {have}"
                )
    return arr


def check_positive_int(value, *, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer >= ``minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_probability(value, *, name: str) -> float:
    """Validate that ``value`` lies in [0, 1] and return it as ``float``."""
    return check_in_range(value, name=name, low=0.0, high=1.0)


def check_in_range(
    value,
    *,
    name: str,
    low: float,
    high: float,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Validate that a scalar lies in the given interval and return it."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number") from exc
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    low_ok = value >= low if inclusive_low else value > low
    high_ok = value <= high if inclusive_high else value < high
    if not (low_ok and high_ok):
        lo_b = "[" if inclusive_low else "("
        hi_b = "]" if inclusive_high else ")"
        raise ValidationError(f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value}")
    return value


#: One parsed dimension token: a fixed int, a symbol name, ``None`` for the
#: ``*`` wildcard, or ``Ellipsis`` for the ``...`` rest-of-dims marker.
DimToken = Union[int, str, None, type(Ellipsis)]


def parse_shape_spec(spec: str) -> Tuple[DimToken, ...]:
    """Parse one :func:`shapes` DSL string into dimension tokens.

    ``"(n, d)"`` → ``("n", "d")``; ``"(w, 3)"`` → ``("w", 3)``;
    ``"(n,)"`` → ``("n",)``; ``"(..., 3)"`` → ``(Ellipsis, 3)``;
    ``"(*, d)"`` → ``(None, "d")``.

    Raises
    ------
    ValidationError
        If the spec is not a parenthesized comma-separated list of
        integers, identifiers, ``*`` and at most one ``...``.
    """
    if not isinstance(spec, str):
        raise ValidationError(f"shape spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValidationError(f"shape spec {spec!r} must be parenthesized, like '(n, d)'")
    inner = text[1:-1].strip()
    tokens: list[DimToken] = []
    if inner:
        parts = inner.split(",")
        # A trailing comma writes a 1-D spec the tuple way: "(n,)".
        if parts[-1].strip() == "":
            parts.pop()
        seen_ellipsis = False
        for part in parts:
            token = part.strip()
            if token == "...":
                if seen_ellipsis:
                    raise ValidationError(
                        f"shape spec {spec!r} may contain at most one '...'"
                    )
                seen_ellipsis = True
                tokens.append(Ellipsis)
            elif token == "*":
                tokens.append(None)
            elif token.isdigit():
                tokens.append(int(token))
            elif token.isidentifier():
                tokens.append(token)
            else:
                raise ValidationError(
                    f"shape spec {spec!r} has invalid dimension token {token!r}"
                )
    return tuple(tokens)


def _spec_ndim_text(tokens: Tuple[DimToken, ...]) -> str:
    if Ellipsis in tokens:
        return f">= {len(tokens) - 1} dimensions"
    return f"{len(tokens)} dimension(s)"


def _match_shape(
    shape: Tuple[int, ...],
    tokens: Tuple[DimToken, ...],
    *,
    name: str,
    spec: str,
    bindings: dict,
) -> None:
    """Match one value's shape against parsed tokens, updating ``bindings``."""
    if Ellipsis in tokens:
        cut = tokens.index(Ellipsis)
        head, tail = tokens[:cut], tokens[cut + 1 :]
        if len(shape) < len(head) + len(tail):
            raise ValidationError(
                f"{name} must have {_spec_ndim_text(tokens)} to match {spec!r}, "
                f"got shape {shape}"
            )
        pairs = list(zip(head, shape[: len(head)])) + (
            list(zip(tail, shape[len(shape) - len(tail) :])) if tail else []
        )
    else:
        if len(shape) != len(tokens):
            raise ValidationError(
                f"{name} must have {_spec_ndim_text(tokens)} to match {spec!r}, "
                f"got shape {shape}"
            )
        pairs = list(zip(tokens, shape))
    for token, size in pairs:
        if token is None:
            continue
        if isinstance(token, int):
            if size != token:
                raise ValidationError(
                    f"{name} violates shape contract {spec!r}: expected size "
                    f"{token}, got {size} (shape {shape})"
                )
        else:  # symbolic dimension
            bound = bindings.get(token)
            if bound is None:
                bindings[token] = (size, name)
            elif bound[0] != size:
                raise ValidationError(
                    f"{name} violates shape contract {spec!r}: dimension "
                    f"'{token}' is {size} here but {bound[0]} in {bound[1]} "
                    f"(shape {shape})"
                )


def shapes(**contracts: str):
    """Declare and enforce array shape contracts on a function's parameters.

    See the module docstring for the DSL.  Contracted parameters that are
    ``None`` at call time are skipped.  Violations raise
    :class:`repro.errors.ValidationError` naming the parameter, the
    contract, and the offending shape.

    The parsed contracts are attached to the wrapper as
    ``__shape_contracts__`` so tools (and :mod:`repro.lint`) can introspect
    them.

    Each contracted parameter's position is resolved once, here, so a call
    reads its value straight from ``args`` or ``kwargs``; a parameter left
    at its default is skipped like ``None``.  A call the signature rejects
    still raises ``TypeError``: the function itself raises it when every
    contract holds, and a violation binds the call before reporting.
    """
    parsed = {name: parse_shape_spec(spec) for name, spec in contracts.items()}

    def decorate(func):
        signature = inspect.signature(func)
        params = list(signature.parameters.values())
        unknown = [name for name in parsed if name not in signature.parameters]
        if unknown:
            raise ValidationError(
                f"@shapes on {func.__qualname__} names unknown parameter(s) "
                f"{unknown}; parameters are {list(signature.parameters)}"
            )
        variadic = [p.name for p in params if p.name in parsed
                    and p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
        if variadic:
            raise ValidationError(
                f"@shapes on {func.__qualname__} names variadic parameter(s) "
                f"{variadic}; contracts apply to single arrays"
            )
        # (name, index among the positional arguments or None for a
        # keyword-only parameter, parsed tokens), in declaration order.
        slots = []
        for name, tokens in parsed.items():
            param = signature.parameters[name]
            position = (None if param.kind is param.KEYWORD_ONLY
                        else params.index(param))
            slots.append((name, position, tokens))

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bindings: dict = {}
            try:
                for name, position, tokens in slots:
                    if position is not None and position < len(args):
                        value = args[position]
                    else:
                        value = kwargs.get(name)
                    if value is None:
                        continue
                    try:
                        shape = np.shape(value)
                    except (TypeError, ValueError) as exc:
                        raise ValidationError(
                            f"{name} has no well-defined shape: {exc}"
                        ) from exc
                    _match_shape(shape, tokens, name=name,
                                 spec=contracts[name], bindings=bindings)
            except ValidationError:
                signature.bind(*args, **kwargs)
                raise
            return func(*args, **kwargs)

        wrapper.__shape_contracts__ = dict(contracts)
        return wrapper

    return decorate
