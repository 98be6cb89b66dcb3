"""Free complexes with signed-monomial differential entries.

A ``FreeComplex`` records, per homological degree q >= 0, an ordered basis of
opaque labels together with the multidegree of each basis element, and for
each q >= 1 a sparse differential matrix into degree q - 1.  Entries are
pairs (sign, coefficient monomial) with sign in {+1, -1}; distinct terms of a
differential never share a matrix position, so no coefficient arithmetic
beyond multiplication is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monomials import square_items

__all__ = ["FreeComplex"]


@dataclass
class FreeComplex:
    kind: str        # "ek", "modified", "modified|theta", "modified|theta-prime"
    ring: tuple      # ("S", n) | ("S~", n, d, squares) | ("T", N)
    basis: list      # basis[q]: ordered list of labels
    mdegs: list      # mdegs[q][k]: Monomial, degree of basis[q][k]
    diffs: list      # diffs[q]: dict[(row, col)] = (sign, coeff), degree q+1 -> q

    def __post_init__(self):
        if len(self.diffs) != max(len(self.basis) - 1, 0):
            raise ValueError("differential count does not match basis degrees")
        for q, mat in enumerate(self.diffs):
            rows, cols = len(self.basis[q]), len(self.basis[q + 1])
            for (i, j), (sign, _) in mat.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols} at q={q}")
                if sign not in (1, -1):
                    raise ValueError(f"sign must be +-1, got {sign}")

    @property
    def top(self) -> int:
        return len(self.basis) - 1

    @property
    def ranks(self) -> tuple:
        return tuple(len(b) for b in self.basis)

    @property
    def squares(self):
        """The squares (i, j) of the variables of an S~ ring, else None."""
        return self.ring[3] if self.ring[0] == "S~" else None

    def boundary(self, q: int) -> dict:
        """The differential from degree q to q - 1 (q >= 1)."""
        if not 1 <= q <= self.top:
            raise ValueError(f"no differential out of degree {q}")
        return self.diffs[q - 1]

    def column(self, q: int, col: int) -> list:
        """Entries (row, sign, coeff) of one differential column."""
        return [
            (i, sign, coeff)
            for (i, j), (sign, coeff) in self.boundary(q).items()
            if j == col
        ]

    def to_json_dict(self) -> dict:
        ring = {"type": self.ring[0], "n": self.ring[1]}
        if self.ring[0] == "S~":
            ring["d"] = self.ring[2]
        out = {
            "kind": self.kind,
            "ring": ring,
            "ranks": list(self.ranks),
            "basis": [[_label_json(lbl) for lbl in layer] for layer in self.basis],
            "diffs": [],
        }
        squares = self.squares
        for q, mat in enumerate(self.diffs, start=1):
            entries = [
                {"row": i, "col": j, "sign": sign, "coeff_exponents": _coeff_json(coeff, squares)}
                for (i, j), (sign, coeff) in sorted(mat.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            ]
            out["diffs"].append({"q": q, "entries": entries})
        return out


def _label_json(label) -> dict:
    # Classical labels name bare indices i, modified ones squares (i, j).
    F = [list(x) if isinstance(x, tuple) else x for x in label.indices]
    return {"F": F, "m": list(label.m.exps)}


def _coeff_json(coeff, squares):
    if squares is None:
        return list(coeff.exps)
    return [[i, j, e] for (i, j), e in square_items(coeff, squares)]
