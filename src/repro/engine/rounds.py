"""Round accounting shared by the CONGEST / CLIQUE / MPC engines.

The paper's results are statements about *round complexity*.  The reference
engines execute algorithms centrally (for speed) but charge communication
rounds exactly as the distributed algorithm would: a neighbor exchange is one
round, fixing one seed bit over a BFS tree costs an aggregation plus a
broadcast, and so on.  :class:`RoundLedger` accumulates those charges under
named categories so experiments can report where rounds go.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RoundLedger"]


@dataclass
class RoundLedger:
    """Accumulates communication-round charges by category.

    Every ``charge`` call adds a non-negative integer number of rounds under
    a category label.  ``total`` is the sum over all categories; categories
    make it easy for benchmarks to break down e.g. "seed fixing" vs "MIS" vs
    "Linial" costs.
    """

    categories: dict[str, int] = field(default_factory=dict)
    events: list[tuple[str, int]] = field(default_factory=list)

    def charge(self, category: str, rounds: int) -> None:
        if rounds < 0:
            raise ValueError(f"cannot charge negative rounds: {rounds}")
        rounds = int(rounds)
        self.categories[category] = self.categories.get(category, 0) + rounds
        self.events.append((category, rounds))

    @property
    def total(self) -> int:
        return sum(self.categories.values())

    def breakdown(self) -> dict[str, int]:
        """Copy of the per-category round totals."""
        return dict(self.categories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.categories.items()))
        return f"RoundLedger(total={self.total}, {parts})"
