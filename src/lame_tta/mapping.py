"""Pooling of source-class probabilities into target superclasses.

A mapping assigns each source class to at most one target class (or to
nothing, in which case its probability mass is dropped). Pooled vectors
are renormalized so they remain valid probability vectors; group sums and
row totals add their operands in value-sorted order, so pooling commutes
exactly with permutations inside a group.

Mapping file format (UTF-8, one entry per line):

    <source_index><TAB><target_label>

The literal target label ``__null__`` marks an unmapped source class;
lines starting with ``#`` are comments; target indices are assigned by
first appearance order of their labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import sorted_rowsums

NULL_LABEL = "__null__"
NULL_TARGET = -1


class MappingError(ValueError):
    pass


@dataclass(frozen=True)
class ClassMapping:
    """Partial function from source class index to target class index.

    ``assignment[y]`` is the target index of source class y, or -1 when y
    is unmapped. Every target class must receive at least one source
    class.
    """

    source_count: int
    target_count: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        if self.source_count < 1 or self.target_count < 1:
            raise MappingError("source and target counts must be >= 1")
        if len(self.assignment) != self.source_count:
            raise MappingError("assignment length must equal source_count")
        seen = set()
        for y, z in enumerate(self.assignment):
            if z == NULL_TARGET:
                continue
            if not 0 <= z < self.target_count:
                raise MappingError(f"source {y} maps to unknown target {z}")
            seen.add(z)
        missing = set(range(self.target_count)) - seen
        if missing:
            raise MappingError(f"empty target class(es): {sorted(missing)}")

    def over(self, class_count: int) -> "ClassMapping":
        """This mapping over a dataset's ``class_count`` source classes:
        source classes past the listed ones are unmapped, and a listed
        class at or above ``class_count`` is an error."""
        if self.source_count > class_count:
            raise MappingError(
                f"mapping covers {self.source_count} source classes but the "
                f"dataset has {class_count}"
            )
        pad = (NULL_TARGET,) * (class_count - self.source_count)
        return replace(self, source_count=class_count, assignment=self.assignment + pad)

    def groups(self) -> list[np.ndarray]:
        """Source indices per target class, in target order."""
        a = np.asarray(self.assignment)
        return [np.flatnonzero(a == z) for z in range(self.target_count)]

    def map_labels(self, labels: np.ndarray) -> np.ndarray:
        """Translate source labels to target labels (-1 for unmapped)."""
        a = np.asarray(self.assignment)
        return a[np.asarray(labels)]


def pool_average(q_source, m: ClassMapping) -> np.ndarray:
    """Mean of the source probabilities inside each target group, then
    renormalized. Mass on unmapped classes is dropped."""
    return pool_rows(np.asarray(q_source, dtype=float)[None], m, "average")[0]


def pool_rows(Q: np.ndarray, m: ClassMapping, how: str = "average") -> np.ndarray:
    """Pool every row of an (N, |Y|) matrix into (N, |Z|), one target group
    at a time."""
    if how not in ("average", "max"):
        raise ValueError(f"unknown pooling {how!r}")
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != m.source_count:
        raise ValueError(f"expected an (N, {m.source_count}) probability matrix, got {Q.shape}")
    pooled = np.empty((Q.shape[0], m.target_count))
    for z, group in enumerate(m.groups()):
        if how == "average":
            pooled[:, z] = sorted_rowsums(Q[:, group]) / len(group)
        else:
            pooled[:, z] = Q[:, group].max(axis=1)
    total = sorted_rowsums(pooled)
    if np.any(total == 0.0):
        raise MappingError("all probability mass fell on unmapped classes")
    return pooled / total[:, None]


def parse_mapping(text: str, source_count: int | None = None) -> ClassMapping:
    """Parse the tab-separated mapping format; errors carry line numbers.

    The mapping covers the source classes up to the largest listed index;
    with ``source_count``, it is widened to that many by
    :meth:`ClassMapping.over`. Unlisted source classes are unmapped.
    """
    entries: list[tuple[int, str]] = []
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MappingError(f"line {lineno}: expected '<source_index><TAB><target_label>'")
        idx_text, label = parts[0].strip(), parts[1].strip()
        try:
            y = int(idx_text)
        except ValueError:
            raise MappingError(f"line {lineno}: bad source index {idx_text!r}") from None
        if y < 0:
            raise MappingError(f"line {lineno}: source index must be nonnegative")
        if not label:
            raise MappingError(f"line {lineno}: unknown target label (empty)")
        if y in seen:
            raise MappingError(f"line {lineno}: duplicate source class {y}")
        seen.add(y)
        entries.append((y, label))
    if not entries:
        raise MappingError("mapping file defines no entries")

    # target indices follow the first appearance of each label in the file
    labels: list[str] = []
    assignment = [NULL_TARGET] * (max(seen) + 1)
    for y, label in entries:
        if label == NULL_LABEL:
            continue
        if label not in labels:
            labels.append(label)
        assignment[y] = labels.index(label)
    if not labels:
        raise MappingError("every source class is unmapped; no target classes defined")
    m = ClassMapping(len(assignment), len(labels), tuple(assignment))
    return m if source_count is None else m.over(source_count)


def load_mapping(path, source_count: int | None = None) -> ClassMapping:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mapping(fh.read(), source_count=source_count)
