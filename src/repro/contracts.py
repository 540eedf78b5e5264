"""Runtime ndarray contracts for the pipeline seams.

PRs 1-4 established dtype/shape invariants by hand (float32 no-grad
inference, float64 frozen-baseline RoI/codec arithmetic, (H, W, 3)
frames in [0, 1]); this module makes them executable at the seams where
arrays change hands: detector, depth preprocessing, Algorithm-1 search,
encoder/decoder, SR runner, and the streaming client/server pipeline.

Usage::

    from repro.contracts import shaped

    @shaped(frame="H W 3:f32", depth="H W:f32")
    def preprocess(frame, depth): ...

Every spec is parsed, and its names are checked against the function's
parameters, when the decorator runs — at import, whatever the
environment — so a malformed spec fails the import of its module.
Value checks run only when ``REPRO_CONTRACTS=1`` is set in the
environment (CI and the test suite turn it on). When disabled — the
default — ``shaped`` returns the decorated function **unchanged**: no
wrapper, no per-call overhead, byte-identical behavior.

Spec mini-grammar
-----------------
A spec is ``DIMS[:DTYPE]`` with alternatives separated by ``|``::

    "H W 3:f32"        # rank 3, trailing dim exactly 3, float32
    "H W:n"            # rank 2, any numeric dtype
    "H W:n|H W C:n"    # rank 2 or rank 3 (grayscale-or-color seams)
    "N 2:i"            # rank 2, any integer dtype

* ``DIMS`` is a space-separated list; each token is an integer literal
  (exact size), an uppercase identifier (a dimension variable bound on
  first use and required to match on every later use — across arguments
  of the same call), or ``*`` (any size). A lowercase identifier is an
  error, and so is a dtype or kind code in ``DIMS`` (``"H W f32"``: the
  ``:`` is missing).
* ``DTYPE`` is one of the exact codes ``f16 f32 f64 u8 i8 i16 i32 i64
  b`` or a kind code: ``f`` (any float), ``i`` (any signed int), ``u``
  (any unsigned int), ``n`` (any numeric). Omitted means any dtype.
* A leading ``?`` (e.g. ``"?H W:f32"`` on any alternative) allows the
  argument to be ``None``.

Float arrays are additionally checked for finiteness (NaN/Inf are
always a contract violation at a seam).

Violations raise :class:`ContractViolation` (a ``TypeError``) naming
the function, the argument, the expected spec, and the actual
shape/dtype.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ContractViolation",
    "ArraySpec",
    "DTYPE_CODES",
    "KIND_CODES",
    "contracts_enabled",
    "parse_spec",
    "shaped",
    "checked",
    "expect",
]


class ContractViolation(TypeError, ValueError):
    """An ndarray failed a :func:`shaped`/:func:`expect` contract.

    Subclasses both ``TypeError`` (it is a type-level breach) and
    ``ValueError`` (the seams it guards historically raised ValueError
    for bad shapes, and callers/tests catch that), so enabling contracts
    never changes which ``except``/``pytest.raises`` clauses match.
    """


#: Exact dtype codes of the spec grammar.
DTYPE_CODES: Dict[str, np.dtype] = {
    "f16": np.dtype(np.float16),
    "f32": np.dtype(np.float32),
    "f64": np.dtype(np.float64),
    "u8": np.dtype(np.uint8),
    "u16": np.dtype(np.uint16),
    "u32": np.dtype(np.uint32),
    "u64": np.dtype(np.uint64),
    "i8": np.dtype(np.int8),
    "i16": np.dtype(np.int16),
    "i32": np.dtype(np.int32),
    "i64": np.dtype(np.int64),
    "b": np.dtype(np.bool_),
}

#: Kind codes: spec token -> accepted ``np.dtype.kind`` characters.
KIND_CODES: Dict[str, str] = {
    "f": "f",
    "i": "i",
    "u": "u",
    "n": "fiu",
}


def contracts_enabled() -> bool:
    """True when ``REPRO_CONTRACTS`` is set to anything but ``''``/``0``."""
    return os.environ.get("REPRO_CONTRACTS", "0") not in ("", "0")


@dataclass(frozen=True)
class ArraySpec:
    """One parsed alternative of a contract spec string."""

    dims: Tuple[object, ...]  # int | str (dim variable) | "*"
    dtype: Optional[str]  # key of DTYPE_CODES / KIND_CODES, or None
    allow_none: bool = False

    def describe(self) -> str:
        dims = " ".join(str(d) for d in self.dims)
        out = f"{dims}:{self.dtype}" if self.dtype else dims
        return f"?{out}" if self.allow_none else out


def _parse_alternative(text: str) -> ArraySpec:
    text = text.strip()
    allow_none = text.startswith("?")
    if allow_none:
        text = text[1:].strip()
    if not text:
        raise ValueError("empty contract alternative")
    dims_part, sep, dtype_part = text.partition(":")
    dtype = dtype_part.strip() if sep else None
    if sep and dtype not in DTYPE_CODES and dtype not in KIND_CODES:
        raise ValueError(
            f"unknown dtype code {dtype!r} (expected one of "
            f"{sorted(DTYPE_CODES)} or {sorted(KIND_CODES)})"
        )
    dims: list[object] = []
    for token in dims_part.split():
        if token == "*" or token == "_":
            dims.append("*")
        elif token.isdigit():
            dims.append(int(token))
        elif token in DTYPE_CODES or token in KIND_CODES:
            raise ValueError(
                f"dimension token {token!r} in spec {text!r} is a dtype code; "
                "missing the ':' separator?"
            )
        elif token.isidentifier():
            if not token[0].isupper():
                raise ValueError(
                    f"lowercase dimension {token!r} in spec {text!r}; dimension "
                    "variables are UPPERCASE"
                )
            dims.append(token)
        else:
            raise ValueError(f"bad dimension token {token!r} in spec {text!r}")
    if not dims:
        raise ValueError(f"spec {text!r} has no dimensions")
    return ArraySpec(dims=tuple(dims), dtype=dtype, allow_none=allow_none)


def parse_spec(text: str) -> Tuple[ArraySpec, ...]:
    """Parse ``"H W 3:f32|H W:f32"`` into a tuple of alternatives."""
    if not isinstance(text, str):
        raise TypeError(f"contract spec must be a string, got {type(text).__name__}")
    alternatives = tuple(_parse_alternative(alt) for alt in text.split("|"))
    return alternatives


def _dtype_ok(dtype: np.dtype, code: Optional[str]) -> bool:
    if code is None:
        return True
    exact = DTYPE_CODES.get(code)
    if exact is not None:
        return dtype == exact
    return dtype.kind in KIND_CODES[code]


def _match_alternative(
    spec: ArraySpec, array: np.ndarray, env: Dict[str, int]
) -> Optional[str]:
    """Return an error string, or None on success (committing dim bindings)."""
    shape = array.shape
    if len(shape) != len(spec.dims):
        return f"rank {len(shape)} != expected rank {len(spec.dims)}"
    trial: Dict[str, int] = {}
    for dim, size in zip(spec.dims, shape):
        if dim == "*":
            continue
        if isinstance(dim, int):
            if size != dim:
                return f"dimension {dim} expected, got {size}"
        else:
            bound = env.get(dim, trial.get(dim))
            if bound is None:
                trial[str(dim)] = size
            elif bound != size:
                return f"dimension {dim}={bound} already bound, got {size}"
    if not _dtype_ok(array.dtype, spec.dtype):
        return f"dtype {array.dtype} does not satisfy :{spec.dtype}"
    if array.dtype.kind == "f" and array.size and not np.isfinite(array).all():
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        return f"{bad} non-finite value(s)"
    env.update(trial)
    return None


def _check_value(
    where: str,
    name: str,
    value: Any,
    alternatives: Tuple[ArraySpec, ...],
    env: Dict[str, int],
) -> None:
    if value is None:
        if any(alt.allow_none for alt in alternatives):
            return
        raise ContractViolation(
            f"contract violation in {where}: argument {name!r} is None "
            f"but spec {'|'.join(a.describe() for a in alternatives)} "
            "does not allow it"
        )
    array = value if isinstance(value, np.ndarray) else np.asarray(value)
    errors = []
    for alt in alternatives:
        scratch = dict(env)
        err = _match_alternative(alt, array, scratch)
        if err is None:
            env.update(scratch)
            return
        errors.append(f"[{alt.describe()}] {err}")
    spec_text = "|".join(a.describe() for a in alternatives)
    raise ContractViolation(
        f"contract violation in {where}: argument {name!r} expected "
        f"{spec_text}, got shape {tuple(array.shape)} dtype {array.dtype} "
        f"({'; '.join(errors)})"
    )


def expect(value: Any, spec: str, name: str = "value", where: str = "expect") -> Any:
    """Imperative form: validate ``value`` against ``spec`` and return it.

    A cheap no-op (one env lookup) when contracts are disabled — for hot
    seams that build values mid-function rather than receiving them as
    arguments (e.g. the streaming client's upscale output).
    """
    if not contracts_enabled():
        return value
    _check_value(where, name, value, parse_spec(spec), {})
    return value


def _parse_specs(
    func: Callable, specs: Dict[str, str]
) -> Tuple[inspect.Signature, Dict[str, Tuple[ArraySpec, ...]]]:
    """Parse ``specs`` and check that they name parameters of ``func``."""
    signature = inspect.signature(func)
    unknown = set(specs) - set(signature.parameters)
    if unknown:
        raise ValueError(
            f"@shaped on {func.__qualname__}: spec names {sorted(unknown)} "
            "are not parameters of the function"
        )
    return signature, {name: parse_spec(text) for name, text in specs.items()}


def checked(func: Callable, specs: Dict[str, str]) -> Callable:
    """Always-on wrapper around ``func`` (what :func:`shaped` applies when
    contracts are enabled; exposed separately so tests can exercise the
    checking logic without touching the environment)."""
    signature, parsed = _parse_specs(func, specs)
    where = func.__qualname__

    @wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        env: Dict[str, int] = {}
        for name, alternatives in parsed.items():
            if name in bound.arguments:
                _check_value(where, name, bound.arguments[name], alternatives, env)
        return func(*args, **kwargs)

    wrapper.__repro_contract__ = dict(specs)  # type: ignore[attr-defined]
    return wrapper


def shaped(**specs: str) -> Callable[[Callable], Callable]:
    """Declare per-argument ndarray contracts on a function.

    The specs are parsed and their names checked at decoration in every
    mode. With ``REPRO_CONTRACTS`` unset (the default) the decorator then
    returns the function object it was given, so disabled mode adds
    literally zero call overhead. With contracts enabled it validates
    every spec'd argument on every call, binding dimension variables
    across arguments (``psnr(reference="H W", test="H W")`` requires both
    frames to agree).
    """

    def decorate(func: Callable) -> Callable:
        if contracts_enabled():
            return checked(func, specs)
        _parse_specs(func, specs)
        return func

    return decorate
