"""Operation counters for verification-cost accounting.

A meter belongs to one party of one protocol session.  Code that performs
field work on behalf of a party charges the party's meter in bulk (a Horner
evaluation of degree d charges d multiplications and d additions at once).
Subtractions and negations are charged to the ``add`` counter.

``elements_sent`` counts field elements crossing the wire.  A monic
polynomial costs its degree (the leading 1 is implicit once the degree is
known), any other nonzero polynomial costs degree + 1, the zero polynomial
costs nothing, a vector costs its length and a scalar costs 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class CostMeter:
    mul: int = 0
    add: int = 0
    inv: int = 0
    matvec: int = 0
    random_draws: int = 0
    elements_sent: int = 0

    @property
    def field_ops(self) -> int:
        """Total field operations (multiplications, additions, inversions)."""
        return self.mul + self.add + self.inv

    def snapshot(self) -> "CostMeter":
        return replace(self)
