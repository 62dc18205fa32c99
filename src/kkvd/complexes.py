"""Faces, face families, and facet-generated simplicial complexes.

Vertices are arbitrary positive integer labels.  Internally a set of
vertices is a *mask*: an int whose bit i stands for the i-th smallest of
the labels in play.  A complex keeps its sorted labels and its facets as
masks, always compacted (every bit 0..v-1 is some facet's vertex) and
inclusion-maximal, sorted by size, then value, made from facet labels with
no Face per facet.  Subset tests, links and deletions are word operations.

The helpers below are the one copy of each mask operation: set bits, purity,
union and intersection, the maximal filter, compaction (:func:`_compact`,
the only place labels get renumbered), faces to masks and back, the faces
of one size (:func:`_faces_of_size`, ascending masks in squashed order),
the one walk over all faces, which stops past a limit, the shadow, the
ridge tally, link and deletion (through the shadow when the complex is
pure, with no maximal filter).  F-vectors count faces by the deletion-link
recursion, or by that walk where it costs less (:func:`_face_counts`).
The recursions of :mod:`kkvd.decomposition` run on them directly and
build no complex per node.  :class:`Face` and :class:`FaceFamily` exist
only at the edges: the public API and parsing and formatting.  All public
output is in terms of the original labels.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    BudgetExceeded,
    EmptyComplex,
    FaceNotInComplex,
    InvalidInput,
    InvalidLabel,
    OutOfRange,
    SizeMismatch,
    TooManyVertices,
    VertexNotInComplex,
)

#: Mask width; a complex may use at most this many distinct vertex labels.
MAX_VERTICES = 64
#: Counting faces is charged in steps of about 0.1 µs: one per facet vertex
#: of each subcomplex shed and _NODE_COST more, or _LISTED_COST per face
#: listed.  One count may spend _COUNT_BUDGET steps.
_COUNT_BUDGET, _NODE_COST, _LISTED_COST = 1 << 22, 100, 4

FaceLike = Union["Face", Iterable[int]]


def squashed_key(vertices: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key realizing the squashed (colex) order on equal-size label tuples."""
    return tuple(reversed(vertices))


class Face:
    """An immutable set of positive integer vertex labels.

    ``Face()`` is the empty face (dimension -1).  Labels are stored
    strictly increasing; duplicates in the input collapse.
    """

    __slots__ = ("_vertices",)

    def __init__(self, *labels: int):
        seen = set()
        for v in labels:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InvalidLabel(f"vertex labels must be integers >= 1, got {_named(v)}")
            seen.add(v)
        self._vertices: tuple[int, ...] = tuple(sorted(seen))

    @classmethod
    def _unsafe(cls, vertices: tuple[int, ...]) -> "Face":
        # internal: caller guarantees a sorted tuple of valid labels
        f = object.__new__(cls)
        f._vertices = vertices
        return f

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def dimension(self) -> int:
        return len(self._vertices) - 1

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def __contains__(self, label: int) -> bool:
        return label in self._vertices

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Face) and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Face({', '.join(map(_named, self._vertices))})"

    def issubset(self, other: "Face") -> bool:
        return set(self._vertices) <= set(other._vertices)

    def union(self, other: "Face") -> "Face":
        return Face(*self._vertices, *other._vertices)

    def without(self, label: int) -> "Face":
        """The face with one vertex removed."""
        if label not in self._vertices:
            raise InvalidInput(f"vertex {_named(label)} not in {_named(self)}")
        return Face(*(v for v in self._vertices if v != label))

    def with_vertex(self, label: int) -> "Face":
        return Face(*self._vertices, label)


def as_face(obj: FaceLike) -> Face:
    if isinstance(obj, Face):
        return obj
    return Face(*obj)


class FaceFamily:
    """A deduplicated set of equal-cardinality faces in squashed order.

    An empty family may carry a declared member size (e.g. the first 0
    k-sets); equality and hashing ignore it.
    """

    __slots__ = ("_faces", "_size")

    def __init__(self, faces: Iterable[FaceLike] = (), size: int | None = None):
        unique = {as_face(f) for f in faces}
        sizes = {len(f) for f in unique}
        if len(sizes) > 1:
            raise SizeMismatch(f"family mixes face sizes {sorted(sizes)}")
        if sizes:
            member_size = sizes.pop()
            if size is not None and size != member_size:
                raise SizeMismatch(
                    f"declared size {size} but members have size {member_size}"
                )
            size = member_size
        self._faces: tuple[Face, ...] = tuple(
            sorted(unique, key=lambda f: squashed_key(f.vertices))
        )
        self._size = size

    @classmethod
    def _unsafe(cls, faces: list[Face], size: int) -> "FaceFamily":
        # internal: caller guarantees distinct faces of this size in squashed
        # order; a list, as growing a tuple from a generator raised peak RSS
        fam = object.__new__(cls)
        fam._faces, fam._size = tuple(faces), size
        return fam

    @property
    def uniform_size(self) -> int | None:
        """Common cardinality of the members; None for an undeclared empty family."""
        return self._size

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted union of all member labels."""
        out: set[int] = set()
        for f in self._faces:
            out.update(f.vertices)
        return tuple(sorted(out))

    def __len__(self) -> int:
        return len(self._faces)

    def __iter__(self) -> Iterator[Face]:
        return iter(self._faces)

    def __bool__(self) -> bool:
        return bool(self._faces)

    def __contains__(self, face: object) -> bool:
        if not isinstance(face, Face) or len(face) != self._size:
            return False
        key = squashed_key(face._vertices)  # members are sorted by it
        i = bisect.bisect_left(self._faces, key, key=lambda f: squashed_key(f.vertices))
        return i < len(self._faces) and self._faces[i] == face

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaceFamily) and self._faces == other._faces

    def __hash__(self) -> int:
        return hash(self._faces)

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self._faces)
        return f"FaceFamily([{inner}])"


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks: Iterable[int]) -> int:
    return functools.reduce(operator.or_, masks, 0)


def _is_pure(masks: Iterable[int]) -> bool:
    return len({m.bit_count() for m in masks}) <= 1


def _intersection(masks: Iterable[int]) -> int:
    """The bits common to all masks; nonzero for facets of a cone."""
    return functools.reduce(operator.and_, masks, -1)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks, without repeats, largest first."""
    kept: list[int] = []
    larger: list[int] = []
    size = -1
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        # only a mask with more bits can contain this one
        if m.bit_count() != size:
            size, larger = m.bit_count(), kept[:]
        for n in larger:
            if m & n == m:
                break
        else:
            kept.append(m)
    return kept


def _compact(masks: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(kept bits, masks moved onto bits 0..v-1) keeping bit order.

    The kept bits are the v used positions, ascending; the masks come back
    sorted by size, then value.
    """
    masks = list(masks)
    union = _union(masks)
    gaps = ((1 << union.bit_length()) - 1) ^ union
    kept = [*range(union.bit_length())]
    while gaps:
        # close the highest run of unused bits, start..top-1, in one shift
        top = gaps.bit_length()
        start = (~gaps & ((1 << top) - 1)).bit_length()
        low = (1 << start) - 1
        gaps &= low
        del kept[start:top]  # entries below top still stand at their positions
        masks = [(m & low) | ((m >> (top - start)) & ~low) for m in masks]
    masks.sort()
    masks.sort(key=int.bit_count)
    return tuple(kept), tuple(masks)


def _masks_of(faces: Iterable[Iterable[int]], labels: Sequence[int]) -> list[int]:
    """Each face, given by its labels, as a mask over the sorted labels."""
    bit = {v: 1 << i for i, v in enumerate(labels)}.__getitem__
    return [sum(map(bit, f)) for f in faces]


def _face_of(mask: int, labels: Sequence[int]) -> Face:
    return Face._unsafe(tuple(labels[b] for b in _bits(mask)))


def _faces_of_size(masks: Iterable[int], k: int) -> list[int]:
    """The distinct k-vertex faces (∅ alone for k = 0) as ascending masks,
    which is squashed order: max(A △ B) is in B exactly when A < B."""
    seen: set[int] = set()
    for fm in masks:
        size = fm.bit_count()
        if size == k:
            seen.add(fm)
        elif size > k:
            singles, rest = [], fm
            while rest:
                singles.append(rest & -rest)
                rest &= rest - 1
            # a sum of distinct single bits is their union
            seen.update(map(sum, itertools.combinations(singles, k)))
    return sorted(seen)


def _face_counts(masks: Sequence[int]) -> list[int]:
    """(f_-1, f_0, ...) of the complex the maximal masks generate.

    The shedding recursion may spend as much as listing the faces would;
    past that, one walk over the faces counts them by size, unless it would
    pass ``_COUNT_BUDGET``, which refuses the count with ``BudgetExceeded``.
    """
    listing = _LISTED_COST * sum(1 << m.bit_count() for m in masks)
    try:
        return _shed_counts(tuple(masks), {}, [min(listing, _COUNT_BUDGET)])
    except BudgetExceeded:
        if listing > _COUNT_BUDGET:
            raise
    sizes = [*map(int.bit_count, _count_faces(masks, listing))]
    return [sizes.count(k) for k in range(max(sizes) + 1)]


def _shed_counts(masks: tuple[int, ...], memo: dict, left: list[int]) -> list[int]:
    """(f_-1, f_0, ...) by shedding the top vertex x, memoized on the masks:
    f(Δ) = f(del_x Δ) + f(lk_x Δ) one place up.

    A cone point, whose deletion is its link, costs one node; all k-sets of
    s vertices (a simplex, ∂Δ_s) have f_{i-1} = C(s, i) for i <= k.  Each
    distinct subcomplex spends ``_NODE_COST`` steps, one per facet vertex,
    and m²/8 more for m facets that are not pure, out of ``left[0]``.
    """
    if masks not in memo:
        pure = _is_pure(masks)
        # a deletion that is not pure tests each F - x against the other facets
        left[0] -= _NODE_COST + sum(map(int.bit_count, masks))
        left[0] -= 0 if pure else len(masks) ** 2 // 8
        if left[0] < 0:
            raise BudgetExceeded(
                f"counting faces took more than its budget of {_COUNT_BUDGET} steps"
            )
        support = _union(masks)
        s, k = support.bit_count(), masks[0].bit_count()
        if pure and len(masks) == math.comb(s, k):
            memo[masks] = [math.comb(s, i) for i in range(k + 1)]
        else:
            bit = 1 << (support.bit_length() - 1)
            f_del = _shed_counts(tuple(sorted(_deletion_masks(masks, bit))), memo, left)
            f_link = _shed_counts(tuple(sorted(_link_masks(masks, bit))), memo, left)
            pairs = itertools.zip_longest(f_del, [0, *f_link], fillvalue=0)
            memo[masks] = [a + b for a, b in pairs]
    return memo[masks]


def _count_faces(masks: Iterable[int], limit: int) -> set[int]:
    """The distinct faces (∅ included) under the facets as masks, up to limit + 1."""
    seen: set[int] = set()
    for f in masks:
        s = f
        while True:  # every submask of f, f itself first and 0 last
            seen.add(s)
            if len(seen) > limit:
                return seen
            if not s:
                break
            s = (s - 1) & f
    return seen


def _link_masks(masks: Iterable[int], face: int) -> list[int]:
    """Facets of the link of a face; maximal, as F - σ ⊆ G - σ forces F ⊆ G."""
    return [f & ~face for f in masks if f & face == face]


def _shadow_masks(masks: Iterable[int]) -> set[int]:
    """Every mask with one bit fewer than some given mask."""
    out: set[int] = set()
    # the hottest loop in the package: over _bits it ran 1.6-1.9x slower
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            out.add(m ^ low)
            rest ^= low
    return out


def _root(parent: list[int], i: int) -> int:
    """The root of i in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


def _components(masks: Sequence[int]) -> tuple[int, int]:
    """(vertices, connected components) of the complex the masks generate:
    one union-find pass joins each mask's vertices to its lowest, and every
    join of two roots leaves one component fewer."""
    union = _union(masks)
    parent = list(range(union.bit_length()))
    vertices = components = union.bit_count()
    for m in masks:
        rest = m & (m - 1)  # the bits above the lowest
        if rest:
            first = _root(parent, (m ^ rest).bit_length() - 1)
            while rest:
                low = rest & -rest
                rest ^= low
                other = _root(parent, low.bit_length() - 1)
                if other != first:
                    parent[other] = first
                    components -= 1
    return vertices, components


def _ridges(masks: Sequence[int]) -> tuple[bool, dict[int, int], set[int]]:
    """(whether equal-size masks connect through shared ridges, each ridge
    with its first holder's index, the ridges two or more masks hold)."""
    parent = list(range(len(masks)))
    owner: dict[int, int] = {}
    shared: set[int] = set()
    for i, m in enumerate(masks):
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            j = owner.setdefault(m ^ low, i)
            if j != i:
                shared.add(m ^ low)
                parent[_root(parent, i)] = _root(parent, j)
    return sum(parent[i] == i for i in range(len(masks))) == 1, owner, shared


def _deletion_masks(
    masks: Sequence[int], bit: int, covered: set[int] | None = None
) -> list[int]:
    """Facets of the deletion of a vertex.

    The facets avoiding the vertex stay, and F - x is a facet exactly when
    none of them holds it (F - x ⊆ F' - x would force F ⊆ F'): in a pure
    complex, when F - x is not in their shadow, nor in `covered`, a set
    measured already that holds just the F - x other facets hold.  A
    non-pure complex goes through `_maximal`.
    """
    if covered is None:
        if not _is_pure(masks):
            return _maximal(f & ~bit for f in masks)
        covered = _shadow_masks([f for f in masks if not f & bit])
    # F ∌ x stays: F + x is a size larger than any F - x
    return [f & ~bit for f in masks if f ^ bit not in covered]


class SimplicialComplex:
    """A simplicial complex generated by its inclusion-maximal faces.

    Two distinguished small values: the *empty complex* (no faces) and the
    complex ``{∅}`` whose only facet is the empty face.  They behave
    differently under links and recursion and are never conflated.
    """

    __slots__ = ("_labels", "_facet_masks")

    def __init__(self, faces: Iterable[FaceLike] = ()):
        facets = [  # a Face's labels come as a checked tuple, others as a list
            f if type(f) is tuple or all(type(v) is int and v > 0 for v in f)
            else Face(*f)._vertices  # raises InvalidLabel for a bad label
            for f in (f._vertices if isinstance(f, Face) else [*f] for f in faces)
        ]
        labels = sorted({v for f in facets for v in f})
        if len(labels) > MAX_VERTICES:
            raise TooManyVertices(
                f"{len(labels)} distinct vertices exceed the {MAX_VERTICES}-bit mask"
            )
        bit = {v: 1 << i for i, v in enumerate(labels)}.__getitem__
        self._labels: tuple[int, ...] = tuple(labels)  # all in use: none renumbered
        self._facet_masks = _compact(_maximal(_union(map(bit, f)) for f in facets))[1]

    @classmethod
    def _from_masks(cls, labels, masks) -> "SimplicialComplex":
        """A subcomplex from maximal facet masks in a parent's bit space."""
        obj = object.__new__(cls)
        kept, obj._facet_masks = _compact(masks)
        obj._labels = tuple(map(labels.__getitem__, kept))
        return obj

    # -- basic queries ---------------------------------------------------

    @property
    def vertex_set(self) -> tuple[int, ...]:
        return self._labels

    @property
    def facets(self) -> tuple[Face, ...]:
        return tuple(_face_of(m, self._labels) for m in self._facet_masks)

    @property
    def facet_count(self) -> int:
        return len(self._facet_masks)

    @property
    def is_empty(self) -> bool:
        """True for the complex with no faces (not for ``{∅}``)."""
        return not self._facet_masks

    @property
    def dimension(self) -> int | None:
        """Largest face dimension; None for the empty complex, -1 for ``{∅}``."""
        if not self._facet_masks:
            return None
        return self._facet_masks[-1].bit_count() - 1

    @property
    def is_pure(self) -> bool:
        """True when all facets share one dimension (vacuously for no facets)."""
        if not self._facet_masks:
            return True
        return self._facet_masks[0].bit_count() == self._facet_masks[-1].bit_count()

    def _face_mask(self, face: Face) -> int | None:
        """The face as a mask, or None when a label is not a vertex."""
        labels, m, i = self._labels, 0, 0
        for v in face._vertices:  # ascending, so each search starts past the last
            i = bisect.bisect_left(labels, v, i)
            if i == len(labels) or labels[i] != v:
                return None
            m |= 1 << i
        return m

    def __contains__(self, face: object) -> bool:
        m = self._face_mask(face) if isinstance(face, Face) else None
        return m is not None and any(m & f == m for f in self._facet_masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self._labels == other._labels
            and self._facet_masks == other._facet_masks
        )

    def __hash__(self) -> int:
        return hash((self._labels, self._facet_masks))

    def __repr__(self) -> str:
        inner = ", ".join(
            "{" + ",".join(map(_named, f.vertices)) + "}" for f in self.facets
        )
        return f"SimplicialComplex([{inner}])"

    # -- face enumeration --------------------------------------------------

    def faces_of_dim(self, i: int) -> FaceFamily:
        """All i-dimensional faces; i = -1 gives the single empty face."""
        d = self.dimension
        if d is None or i > d or i < -1:
            raise OutOfRange(f"dimension {_named(i)} out of range for {_named(self)}")
        masks = _faces_of_size(self._facet_masks, i + 1)
        return FaceFamily._unsafe([_face_of(m, self._labels) for m in masks], i + 1)

    def all_faces(self) -> Iterator[Face]:
        """Every face including ∅, by dimension then squashed order."""
        d = self.dimension
        for i in range(-1, -1 if d is None else d + 1):
            yield from self.faces_of_dim(i)

    def face_count(self) -> int:
        """Total number of faces including the empty face."""
        return 0 if self.is_empty else sum(_face_counts(self._facet_masks))

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_d); empty tuple for ``{∅}``."""
        d = self.dimension
        if d is None:
            raise EmptyComplex("f-vector undefined for the empty complex")
        return tuple(_face_counts(self._facet_masks)[1:])

    # -- derived complexes -------------------------------------------------

    def link(self, face: FaceLike) -> "SimplicialComplex":
        """Faces disjoint from the given one whose union with it lies in the complex."""
        face = as_face(face)
        m = self._face_mask(face)
        masks = [] if m is None else _link_masks(self._facet_masks, m)
        if not masks:  # no facet holds the face
            raise FaceNotInComplex(f"{_named(face)} is not a face of {_named(self)}")
        return SimplicialComplex._from_masks(self._labels, masks)

    def delete_vertex(self, label: int) -> "SimplicialComplex":
        """All faces avoiding the vertex; may come out non-pure."""
        if type(label) is not int or label < 1:
            Face(label)  # raises InvalidLabel unless an int subclass
        i = bisect.bisect_left(self._labels, label)
        if i == len(self._labels) or self._labels[i] != label:
            raise VertexNotInComplex(f"vertex {_named(label)} not in {_named(self)}")
        masks = _deletion_masks(self._facet_masks, 1 << i)
        return SimplicialComplex._from_masks(self._labels, masks)

    def canonical_facets(self) -> tuple[tuple[int, ...], ...]:
        """Facets after order-preserving relabeling onto 1..v, sorted.

        Equal for two complexes exactly when one is the image of the other
        under an order-preserving relabeling of vertices.
        """
        return tuple(tuple(b + 1 for b in _bits(fm)) for fm in self._facet_masks)


def _named(value: object) -> str:
    """How a message shows a value a caller passed in, so that no error line
    grows with the input or fails to format: an int past the digit limit by
    its size, anything else by its repr cut at 1 KiB, a complex's after the
    last whole facet there."""
    limit = sys.get_int_max_str_digits()  # 0 for none; a digit takes over 3 bits
    if isinstance(value, int) and 0 < 3 * limit < value.bit_length():
        if abs(value) >= 10**limit:
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    text = repr(value)
    if len(text) <= 1024:
        return text
    if isinstance(value, SimplicialComplex):
        cut = text.rfind("}", 0, 1024) + 1 or 1024
        return f"{text[:cut]}, ... {value.facet_count} facets])"
    return f"{text[:1024]}... ({len(text)} characters)"


def make_complex(faces: Iterable[FaceLike]) -> SimplicialComplex:
    """The complex generated by the given faces (dominated faces absorbed)."""
    return SimplicialComplex(faces)
