"""Relation schemas.

A schema fixes the relation's name and its ordered attribute list, mirroring
what the OPS5 ``literalize`` command declares (§3.2 of the paper: "literalize
Emp name age salary dno" is equivalent to defining a relation ``Emp``).
Values are dynamically typed — ints, floats, strings, or ``None`` — exactly
as OPS5 working-memory elements are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError

#: The scalar types a stored attribute value may take.  ``None`` plays the
#: role of OPS5's ``nil``.
Value = int | float | str | None

_ALLOWED_TYPES = (int, float, str, type(None))


def check_value(value: object) -> Value:
    """Validate that *value* is a legal attribute value and return it.

    NaN is refused: it equals nothing, not even itself, so a hash probe
    (which matches the same NaN object by identity) and ``compare("=")``
    would disagree about whether it joins.
    """
    if isinstance(value, bool) or not isinstance(value, _ALLOWED_TYPES):
        raise SchemaError(
            f"attribute values must be int/float/str/None, got {value!r}"
        )
    if value != value:
        raise SchemaError("attribute values must not be NaN")
    return value


@dataclass(frozen=True)
class RelationSchema:
    """Name plus ordered attribute names of one relation (WM class)."""

    name: str
    attributes: tuple[str, ...]
    _positions: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if not self.attributes:
            raise SchemaError(f"relation {self.name!r} needs >= 1 attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(
                f"relation {self.name!r} has duplicate attribute names"
            )
        object.__setattr__(
            self,
            "_positions",
            {attr: i for i, attr in enumerate(self.attributes)},
        )

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        """Return the 0-based slot of *attribute*.

        Raises :class:`SchemaError` for unknown attribute names so typos in
        rule text surface immediately rather than as silent mismatches.
        """
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"known: {', '.join(self.attributes)}"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        """True when *attribute* is a column of this relation."""
        return attribute in self._positions

    def validate_row(self, values: tuple[Value, ...]) -> tuple[Value, ...]:
        """Check arity and value types of *values*; return them unchanged."""
        if len(values) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} expects {self.arity} values, "
                f"got {len(values)}"
            )
        for value in values:
            check_value(value)
        return values

    def row_from_mapping(self, mapping: dict[str, Value]) -> tuple[Value, ...]:
        """Build an ordered row from ``{attribute: value}``.

        Missing attributes default to ``None`` (OPS5 leaves unmentioned
        fields nil); unknown attributes raise.
        """
        for attr in mapping:
            if attr not in self._positions:
                raise SchemaError(
                    f"relation {self.name!r} has no attribute {attr!r}"
                )
        return tuple(mapping.get(attr) for attr in self.attributes)
