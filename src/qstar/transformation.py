"""Total self-maps of {0..n-1} under apply-left-first composition.

``compose(a, b)`` applies ``a`` first, then ``b``, matching the right-action
convention x(ab) = (xa)b used throughout the package.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import ContractError, ValidationError
from .partition import PartitionedSet, check_degree


class _TransformationFields(NamedTuple):
    images: tuple[int, ...]


class Transformation(_TransformationFields):
    """A total map x -> images[x] on {0..n-1}.

    A one-field tuple ``(images,)``, so equality, hashing and ordering run
    in C.  The tuple ordering (lexicographic on the image sequence) is the
    canonical total order used everywhere for deduplication and for
    deterministic output.
    """

    __slots__ = ()

    def __new__(cls, images: Sequence[int]) -> "Transformation":
        t = tuple.__new__(cls, (tuple(images),))
        t.__post_init__()
        return t

    @classmethod
    def _make(cls, iterable) -> "Transformation":
        """``_replace`` builds through here, so it validates as well."""
        return cls(*iterable)

    def __post_init__(self):
        """The one validation hook: every validated construction calls it."""
        images = self.images
        n = len(images)
        if n == 0:
            raise ValidationError("a transformation needs degree at least 1")
        for x, v in enumerate(images):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(f"image of {x} is {v!r}, outside 0..{n - 1}")

    def __reduce__(self):
        """Pickle and copy rebuild through the validating constructor, on every protocol."""
        return type(self), (self.images,)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Transformation":
        """Wrap ``images`` without validation.

        Only for products of valid maps of one degree, which cannot leave
        the range; every other map goes through the validating constructor.
        """
        return tuple.__new__(cls, (images,))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Transformation") -> "Transformation":
        return compose(self, other)


def identity_map(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def constant_map(n: int, value: int) -> Transformation:
    return Transformation((value,) * n)


def product_map(a_images: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The product kernel: a C-level callable taking b's images to a*b's.

    ``a_images`` and the images passed in must be valid maps of one degree;
    nothing is checked.  (a*b)(x) = b(a(x)), so the product's images are b's
    images picked at a's images, which is ``itemgetter(*a_images)``.  On one
    point ``itemgetter`` returns a bare int, so that degree is wrapped.
    """
    if len(a_images) == 1:
        (v,) = a_images
        return lambda b_images: (b_images[v],)
    return itemgetter(*a_images)


def compose(a: Transformation, b: Transformation) -> Transformation:
    """Apply ``a`` first, then ``b``: x -> b(a(x))."""
    if a.n != b.n:
        raise ValidationError(f"degree mismatch: {a.n} vs {b.n}")
    return Transformation._unchecked(product_map(a.images)(b.images))


def image(a: Transformation) -> frozenset:
    """The image set Xa."""
    return frozenset(a.images)


class KernelPartition(NamedTuple):
    """The fibers of a map: classes ordered by least element, with their images."""

    classes: tuple[tuple[int, ...], ...]
    class_image: tuple[int, ...]

    def as_set_partition(self) -> frozenset:
        return frozenset(frozenset(c) for c in self.classes)


def kernel_partition(a: Transformation) -> KernelPartition:
    """Group the domain into fibers x a^{-1}, one class per image point."""
    fibers: dict[int, list[int]] = {}
    for x, v in enumerate(a.images):
        fibers.setdefault(v, []).append(x)
    # Insertion order meets each fiber at its least element, so lists them by it.
    classes = tuple(map(tuple, fibers.values()))
    return KernelPartition(classes, tuple(fibers))


def q_shorthand(P: PartitionedSet, a: Transformation) -> tuple[int, ...]:
    """Compact 1-based tuple (one image per block) for a block-constant map.

    Raises :class:`ContractError` when ``a`` is not constant on some block.
    """
    check_degree(P, a)
    imgs = a.images
    out = []
    for bi, block in enumerate(P.blocks):
        vals = {imgs[x] for x in block}
        if len(vals) != 1:
            raise ContractError(f"map is not constant on block {bi + 1}")
        out.append(next(iter(vals)) + 1)
    return tuple(out)


def from_q_shorthand(P: PartitionedSet, vals: Sequence[int]) -> Transformation:
    """Build the block-constant map from a 1-based tuple, one image per block."""
    vals = tuple(vals)
    if len(vals) != P.k:
        raise ValidationError(f"expected {P.k} entries (one per block), got {len(vals)}")
    n = P.n
    for v in vals:
        if not isinstance(v, int) or not 1 <= v <= n:
            raise ValidationError(f"entry {v!r} outside 1..{n}")
    return Transformation(tuple(vals[b] - 1 for b in P.block_of))


def transformation_to_json(a: Transformation) -> dict:
    return {"images": [v + 1 for v in a.images]}


def transformation_from_json(obj: dict, P: PartitionedSet | None = None) -> Transformation:
    """Parse ``{"images": [...]}`` or, given a partition, ``{"q": [...]}`` (1-based)."""
    if not isinstance(obj, dict):
        raise ValidationError("transformation JSON must be an object")
    if "images" in obj:
        images = obj["images"]
        # Checked here, not by the 0-based constructor, so errors use 1-based points.
        for x, v in enumerate(images, 1):
            if not isinstance(v, int) or not 1 <= v <= len(images):
                raise ValidationError(f"image of {x} is {v!r}, outside 1..{len(images)}")
        return Transformation(tuple(v - 1 for v in images))
    if "q" in obj:
        if P is None:
            raise ValidationError("the 'q' shorthand form needs a partition for context")
        return from_q_shorthand(P, tuple(obj["q"]))
    raise ValidationError("transformation JSON needs an 'images' or 'q' key")
