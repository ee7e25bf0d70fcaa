"""Query result containers."""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.rdf.terms import Literal, Term
from repro.sparql.bindings import Binding, Variable


class ResultSet:
    """The result of a ``SELECT`` query, held column by column.

    Attributes
    ----------
    variables:
        The projected variables in SELECT-clause order.
    columns:
        One list of terms per variable, aligned with ``variables``
        (``None`` where the variable is unbound in that row).
    size:
        The row count (a result without variables still has rows).
    truncated:
        Set by the endpoint layer when the row count was capped by policy.

    :attr:`rows` and iteration build :class:`Binding` rows on demand,
    for tests and examples; the library reads :attr:`columns`.
    """

    def __init__(self, variables: Sequence[Variable], columns: Sequence[list], size: int):
        self.variables: List[Variable] = list(variables)
        self.columns: List[List[Optional[Term]]] = list(columns)
        self.size = size
        self.truncated: bool = False

    @classmethod
    def from_rows(cls, variables: Sequence[Variable], rows: Iterable[Mapping]) -> "ResultSet":
        """A result set from rows mapping variables to terms (transposed once)."""
        rows = list(rows)
        return cls(variables, [[row.get(v) for row in rows] for v in variables], len(rows))

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return self.size > 0

    def __repr__(self) -> str:
        names = ", ".join(f"?{v.name}" for v in self.variables)
        return f"ResultSet(vars=[{names}], rows={self.size})"

    # ------------------------------------------------------------------ #
    def cells(self) -> Iterator[tuple]:
        """The rows as tuples of terms aligned with :attr:`variables`."""
        if self.columns:
            return zip(*self.columns)
        return repeat((), self.size)

    @property
    def rows(self) -> List[Binding]:
        """The rows as :class:`Binding` objects (built on every access)."""
        variables = self.variables
        return [
            Binding({v: t for v, t in zip(variables, cells) if t is not None})
            for cells in self.cells()
        ]

    def truncate(self, cap: int) -> None:
        """Keep only the first ``cap`` rows and mark the result truncated."""
        self.columns = [column[:cap] for column in self.columns]
        self.size = min(self.size, cap)
        self.truncated = True

    def column(self, variable: Variable | str) -> List[Optional[Term]]:
        """All values of one variable, in row order (``None`` when unbound).
        This is the stored column: do not mutate it."""
        if isinstance(variable, str):
            variable = Variable(variable)
        try:
            return self.columns[self.variables.index(variable)]
        except ValueError:
            return [None] * self.size

    def distinct_column(self, variable: Variable | str) -> List[Term]:
        """Distinct non-null values of one variable, preserving first-seen order."""
        seen: Dict[Term, None] = dict.fromkeys(self.column(variable))
        seen.pop(None, None)
        return list(seen)

    def to_dicts(self) -> List[Dict[str, Optional[Term]]]:
        """Rows as plain dictionaries keyed by variable name."""
        names = [v.name for v in self.variables]
        return [dict(zip(names, cells)) for cells in self.cells()]

    def scalar(self) -> Optional[Term]:
        """The single value of a one-row, one-variable result (else ``None``)."""
        if self.size != 1 or len(self.variables) != 1:
            return None
        return self.columns[0][0]

    def scalar_int(self, default: int = 0) -> int:
        """The scalar as an integer — convenient for ``COUNT`` queries."""
        term = self.scalar()
        if isinstance(term, Literal):
            lexical = term.lexical
            # Integer lexicals parse exactly: routing them through float()
            # would lose precision for counts >= 2**53.
            try:
                return int(lexical)
            except ValueError:
                pass
            try:
                return int(float(lexical))
            except (ValueError, OverflowError):
                # "INF" raises OverflowError on int(), "NaN" ValueError.
                return default
        return default

    def to_text(self, max_rows: int = 20) -> str:
        """A small fixed-width text rendering for logs and examples."""
        header = [f"?{v.name}" for v in self.variables]
        body: List[List[str]] = [
            ["" if term is None else str(term) for term in cells]
            for cells, _ in zip(self.cells(), range(max_rows))
        ]
        widths = [len(h) for h in header]
        for line in body:
            for i, cell in enumerate(line):
                widths[i] = max(widths[i], len(cell))
        lines = [
            " | ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
            "-+-".join("-" * w for w in widths),
        ]
        for line in body:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if self.size > max_rows:
            lines.append(f"... ({self.size - max_rows} more rows)")
        return "\n".join(lines)


class AskResult:
    """The boolean result of an ``ASK`` query."""

    def __init__(self, value: bool):
        self.value = bool(value)

    def __bool__(self) -> bool:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AskResult):
            return self.value == other.value
        if isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("AskResult", self.value))

    def __repr__(self) -> str:
        return f"AskResult({self.value})"
