"""Test-only helpers: an identity matrix and a scripted challenge source."""

from certilin import SparseMatrix


def identity_matrix(field, n):
    return SparseMatrix(field, n, [(i, i, 1) for i in range(n)])


class ScriptedChallenges:
    """Fixed initial draws, then a fallback source."""

    def __init__(self, script, fallback):
        self.script = list(script)
        self.fallback = fallback
        self.needs_material = getattr(fallback, "needs_material", True)

    def draw(self, field, material):
        if self.script:
            return field.check(self.script.pop(0))
        return self.fallback.draw(field, material)
