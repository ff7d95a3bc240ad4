import pickle
import random

import pytest

from qstar import (
    ContractError,
    Transformation,
    ValidationError,
    compose,
    constant_map,
    from_q_shorthand,
    identity_map,
    image,
    kernel_partition,
    q_shorthand,
    transformation_from_json,
    transformation_to_json,
)
from qstar.transformation import product_map


def test_validation():
    with pytest.raises(ValidationError):
        Transformation((0, 3))
    with pytest.raises(ValidationError):
        Transformation((0, -1))
    with pytest.raises(ValidationError):
        Transformation(())
    with pytest.raises(ValidationError):
        Transformation((0, "1"))


def test_apply():
    a = Transformation((1, 2, 0))
    assert a(0) == 1 and a(1) == 2 and a(2) == 0
    assert a.n == 3


def test_compose_applies_left_factor_first():
    a = Transformation((1, 2, 0))
    b = Transformation((0, 0, 1))
    assert compose(a, b).images == (0, 1, 0)
    assert (a * b).images == (0, 1, 0)
    assert compose(b, a).images == (1, 1, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_product_kernel_agrees_with_compose(n):
    rng = random.Random(n)
    for _ in range(50):
        a = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        b = Transformation(tuple(rng.randrange(n) for _ in range(n)))
        product = product_map(a.images)(b.images)
        assert type(product) is tuple
        assert product == compose(a, b).images == tuple(b(a(x)) for x in range(n))


def test_compose_result_equals_a_validated_map():
    a = Transformation((1, 2, 0))
    b = Transformation((0, 0, 1))
    product = compose(a, b)
    assert product == Transformation((0, 1, 0))
    assert hash(product) == hash(Transformation((0, 1, 0)))
    assert sorted([identity_map(3), product]) == [product, identity_map(3)]


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValidationError, match="degree mismatch"):
        compose(identity_map(2), identity_map(3))


def test_compose_worked_identities(alpha):
    # The reference instance: squaring the transposition-patterned element
    # gives the base idempotent, and composing with an idempotent lands in
    # that idempotent's H-class.
    assert compose(alpha(7), alpha(7)) == alpha(1)
    assert compose(alpha(7), alpha(2)) == alpha(8)
    assert compose(alpha(2), alpha(7)) == alpha(7)


def test_identity_and_constant():
    e = identity_map(4)
    assert e.images == (0, 1, 2, 3)
    c = constant_map(4, 2)
    assert c.images == (2, 2, 2, 2)
    a = Transformation((2, 0, 1, 3))
    assert compose(e, a) == a == compose(a, e)
    assert compose(a, c) == c
    with pytest.raises(ValidationError):
        constant_map(3, 3)
    with pytest.raises(ValidationError):
        compose(identity_map(3), identity_map(4))


def test_image_and_kernel():
    a = Transformation((1, 1, 0, 1))
    assert image(a) == frozenset({0, 1})
    ker = kernel_partition(a)
    assert ker.classes == ((0, 1, 3), (2,))
    assert ker.class_image == (1, 0)
    assert ker.as_set_partition() == frozenset({frozenset({0, 1, 3}), frozenset({2})})
    assert len(ker.classes) == len(image(a))


def test_kernel_classes_ordered_by_least_element():
    a = Transformation((2, 1, 2, 1, 0))
    ker = kernel_partition(a)
    assert ker.classes == ((0, 2), (1, 3), (4,))
    assert ker.class_image == (2, 1, 0)


def test_q_shorthand_round_trip(p6, alpha):
    a = alpha(7)
    assert a.images == (3, 3, 3, 0, 0, 5)
    assert q_shorthand(p6, a) == (4, 1, 6)
    assert from_q_shorthand(p6, (4, 1, 6)) == a


def test_q_shorthand_rejects_non_collapsed(p6):
    a = Transformation((0, 1, 0, 3, 3, 5))
    with pytest.raises(ContractError, match="not constant on block 1"):
        q_shorthand(p6, a)
    with pytest.raises(ValidationError):
        from_q_shorthand(p6, (4, 1))
    with pytest.raises(ValidationError):
        from_q_shorthand(p6, (4, 1, 7))


def test_json_forms(p6, alpha):
    a = alpha(8)
    obj = transformation_to_json(a)
    assert obj == {"images": [4, 4, 4, 2, 2, 6]}
    assert transformation_from_json(obj) == a
    assert transformation_from_json({"q": [4, 2, 6]}, p6) == a
    with pytest.raises(ValidationError):
        transformation_from_json({"q": [4, 2, 6]})
    with pytest.raises(ValidationError):
        transformation_from_json({})
    with pytest.raises(ValidationError):
        transformation_from_json({"images": [0, 1]})


def test_json_image_errors_name_1_based_points():
    with pytest.raises(ValidationError, match=r"^image of 1 is 4, outside 1\.\.3$"):
        transformation_from_json({"images": [4, 1, 1]})
    with pytest.raises(ValidationError, match=r"^image of 2 is 0, outside 1\.\.2$"):
        transformation_from_json({"images": [1, 0]})
    with pytest.raises(ValidationError, match=r"^image of 1 is '1', outside 1\.\.1$"):
        transformation_from_json({"images": ["1"]})


def test_total_order_is_images_lex():
    a = Transformation((0, 1))
    b = Transformation((1, 0))
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_every_pickle_protocol_rebuilds_through_validation():
    # Protocols 0 and 1 would rebuild the tuple subclass without calling
    # Transformation.__new__ unless __reduce__ routes them through it.
    bad = Transformation._unchecked((5, 5))
    good = Transformation((1, 0, 1))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValidationError, match=r"^image of 0 is 5, outside 0\.\.1$"):
            pickle.loads(pickle.dumps(bad, protocol))
        back = pickle.loads(pickle.dumps(good, protocol))
        assert type(back) is Transformation and back == good and back.images == (1, 0, 1)
