"""Synthetic vision stack: domain spec, scene sampling, exemplar base,
few-shot classification, scene graphs, prior injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundsim import perception
from groundsim.perception import (
    ATTR_BIAS,
    ATTR_GAIN,
    KERNEL_GAIN,
    ONE_SIDED_SCORE,
    PART_GAIN,
    BBox,
    DomainSpec,
    ExemplarBase,
    FeatureModel,
    PartInstance,
    SceneObject,
    build_scene_graph,
    concept_diff,
    generate_scene,
    init_priors,
    relation_score,
    score_fewshot,
)
from groundsim.perception import _bandwidth


@pytest.fixture(scope="module")
def domain():
    return DomainSpec.builtin_glasses()


@pytest.fixture(scope="module")
def model(domain):
    return FeatureModel(domain, seed=0)


# ---------------------------------------------------------------------------
# domain


def test_builtin_domain_shape(domain):
    assert set(domain.classes) == {
        "bordeauxGlass",
        "brandyGlass",
        "burgundyGlass",
        "champagneCoupe",
        "martiniGlass",
    }
    assert domain.parts == ("bowl", "stem")
    assert domain.surfaces["champagneCoupe"] == "champagne coupe"


def test_properties_and_part_attrs(domain):
    props = domain.properties("brandyGlass")
    assert ("short", "stem") in props
    assert props == frozenset(
        {("wide", "bowl"), ("round", "bowl"), ("short", "stem")}
    )
    assert domain.part_attrs("burgundyGlass", "stem") == ()
    with pytest.raises(KeyError):
        domain.properties("nope")


def test_concept_diff_is_symmetric_difference(domain):
    d1, d2 = concept_diff(domain, "champagneCoupe", "martiniGlass")
    assert d1 == frozenset({("round", "bowl")})
    assert d2 == frozenset({("conic", "bowl")})
    assert concept_diff(domain, "brandyGlass", "brandyGlass") == (
        frozenset(),
        frozenset(),
    )


def test_from_dict_round_trip(domain):
    d = {
        "parts": list(domain.parts),
        "attributes": list(domain.attributes),
        "classes": domain.classes,
        "surfaces": domain.surfaces,
    }
    again = DomainSpec.from_dict(d)
    assert again.properties("brandyGlass") == domain.properties("brandyGlass")


# ---------------------------------------------------------------------------
# geometry


def test_relation_score_containment():
    whole = BBox(0, 0, 1, 1)
    inside = BBox(0.2, 0.2, 0.3, 0.3)
    outside = BBox(2, 2, 0.5, 0.5)
    half = BBox(0.75, 0.0, 0.5, 1.0)
    assert relation_score(whole, inside) == 1.0
    assert relation_score(whole, outside) == 0.0
    assert abs(relation_score(whole, half) - 0.5) <= 1e-12


def test_relation_score_rejects_degenerate_boxes():
    with pytest.raises(ValueError):
        relation_score(BBox(0, 0, 0, 1), BBox(0, 0, 1, 1))
    with pytest.raises(ValueError):
        relation_score(BBox(0, 0, 1, 1), BBox(0, 0, 0, 1))


# ---------------------------------------------------------------------------
# sampling


def test_sample_object_structure(model, domain):
    obj = model.sample_object("brandyGlass", "o1", np.random.default_rng(0))
    assert obj.cls == "brandyGlass"
    assert [p.kind for p in obj.parts] == list(domain.parts)
    stem = obj.parts[1]
    assert stem.attrs == ("short",)
    assert relation_score(obj.bbox, stem.bbox) == 1.0


def test_sample_object_unknown_class(model):
    with pytest.raises(KeyError):
        model.sample_object("wineBucket", "o1", np.random.default_rng(0))


def test_generate_scene_deterministic(model):
    s1 = generate_scene(model, "brandyGlass", np.random.default_rng(5), 2)
    s2 = generate_scene(model, "brandyGlass", np.random.default_rng(5), 2)
    assert len(s1) == 3
    assert s1[0].eid == "o1" and s1[0].cls == "brandyGlass"
    assert all(o.cls != "brandyGlass" for o in s1[1:])
    for a, b in zip(s1, s2):
        assert a.cls == b.cls
        np.testing.assert_array_equal(a.class_feature, b.class_feature)


def test_feature_model_seeded(domain):
    m1 = FeatureModel(domain, seed=3)
    m2 = FeatureModel(domain, seed=3)
    m3 = FeatureModel(domain, seed=4)
    np.testing.assert_array_equal(
        m1.class_protos["brandyGlass"], m2.class_protos["brandyGlass"]
    )
    assert not np.allclose(m1.class_protos["brandyGlass"], m3.class_protos["brandyGlass"])


def test_sibling_classes_are_close_in_feature_space(model):
    def cos(a, b):
        return float(np.dot(a, b))

    brandy = model.class_protos["brandyGlass"]
    burgundy = model.class_protos["burgundyGlass"]
    martini = model.class_protos["martiniGlass"]
    assert cos(brandy, burgundy) > cos(brandy, martini)


# ---------------------------------------------------------------------------
# exemplar base and few-shot classifier


def test_exemplar_base_bookkeeping():
    xb = ExemplarBase()
    assert not xb.positive and not xb.negative
    xb.add("stem", np.zeros(4), positive=True)
    assert list(xb.positive) == ["stem"] and len(xb.positive["stem"]) == 1 and not xb.negative
    xb.process_correction("bowl", "stem", np.ones(4))
    assert len(xb.positive["stem"]) == 2 and "stem" not in xb.negative
    assert "bowl" not in xb.positive and len(xb.negative["bowl"]) == 1
    assert sorted(set(xb.positive) | set(xb.negative)) == ["bowl", "stem"]


def classify_fewshot(xb, concept, feature, gain=KERNEL_GAIN, bias=0.0) -> float:
    """`score_fewshot` of one concept and one feature vector, passed as a
    one-row matrix."""
    features = np.asarray(feature, dtype=float)[None]
    return float(score_fewshot(xb, [concept], features, gain, bias)[concept][0])


def test_classify_fewshot_priors_and_one_sided():
    xb = ExemplarBase()
    assert classify_fewshot(xb, "stem", np.zeros(4)) == 0.5
    xb.add("stem", np.zeros(4), positive=True)
    assert classify_fewshot(xb, "stem", np.ones(4)) == ONE_SIDED_SCORE
    xb2 = ExemplarBase()
    xb2.add("stem", np.zeros(4), positive=False)
    assert classify_fewshot(xb2, "stem", np.ones(4)) == 1.0 - ONE_SIDED_SCORE


def test_classify_fewshot_discriminates():
    xb = ExemplarBase()
    pos, neg = np.zeros(4), np.full(4, 3.0)
    xb.add("stem", pos, positive=True)
    xb.add("stem", pos + 0.1, positive=True)
    xb.add("stem", neg, positive=False)
    xb.add("stem", neg - 0.1, positive=False)
    assert classify_fewshot(xb, "stem", pos) > 0.5
    assert classify_fewshot(xb, "stem", neg) < 0.5


def test_classify_fewshot_bias_is_conservative():
    xb = ExemplarBase()
    xb.add("short", np.zeros(4), positive=True)
    xb.add("short", np.ones(4) * 2, positive=False)
    near = np.full(4, 0.9)  # weak positive
    assert classify_fewshot(xb, "short", near, bias=2.0) < classify_fewshot(
        xb, "short", near, bias=0.0
    )


def test_classify_fewshot_dimension_mismatch():
    xb = ExemplarBase()
    xb.add("stem", np.zeros(4), positive=True)
    xb.add("stem", np.ones(4), positive=False)
    with pytest.raises(ValueError):
        classify_fewshot(xb, "stem", np.zeros(5))
    with pytest.raises(ValueError):
        score_fewshot(xb, ["stem"], np.zeros((3, 5)))
    # empty and one-sided sets return their fixed scores before the check
    xb.add("bowl", np.zeros(4), positive=True)
    assert classify_fewshot(xb, "bowl", np.zeros(5)) == ONE_SIDED_SCORE
    assert score_fewshot(xb, ["cup"], np.zeros((2, 5)))["cup"].tolist() == [0.5, 0.5]


def _reference_score(xb, concept, feature, gain, bias):
    """The scalar kernel score of one feature, one exemplar set at a time."""
    pos, neg = xb.positive.get(concept, []), xb.negative.get(concept, [])
    if not pos or not neg:
        return 0.5 if not pos and not neg else (ONE_SIDED_SCORE if pos else 1.0 - ONE_SIDED_SCORE)
    h = _bandwidth(pos + neg)

    def kmean(exemplars):
        d2 = np.sum((np.stack(exemplars) - feature) ** 2, axis=-1)
        return float(np.mean(np.exp(-d2 / (2 * h * h))))

    margin = kmean(pos) - kmean(neg)
    return float(1.0 / (1.0 + np.exp(-(gain * margin - bias))))


@settings(max_examples=60, deadline=None)
@given(
    n_pos=st.integers(0, 40),
    n_neg=st.integers(0, 40),
    n_rows=st.integers(1, 130),
    gain_bias=st.sampled_from([(KERNEL_GAIN, 0.0), (PART_GAIN, 0.0), (ATTR_GAIN, ATTR_BIAS)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_score_fewshot_equals_classify_fewshot_row_by_row(n_pos, n_neg, n_rows, gain_bias, seed):
    rng = np.random.default_rng(seed)
    xb = ExemplarBase()
    for i in range(n_pos + n_neg):
        xb.add("c", rng.normal(size=16), positive=i < n_pos)
    features = rng.normal(size=(n_rows, 16)) * rng.uniform(0.1, 3.0)
    gain, bias = gain_bias
    scores = score_fewshot(xb, ["c"], features, gain, bias)["c"]
    assert scores.shape == (n_rows,)
    for row, score in zip(features, scores):
        assert score == classify_fewshot(xb, "c", row, gain, bias)
        assert score == _reference_score(xb, "c", row, gain, bias)


def test_classifier_cache_invalidated_on_add():
    xb = ExemplarBase()
    xb.add("stem", np.zeros(4), positive=True)
    xb.add("stem", np.ones(4), positive=False)
    before = classify_fewshot(xb, "stem", np.full(4, 0.75))
    xb.add("stem", np.full(4, 0.75), positive=True)
    after = classify_fewshot(xb, "stem", np.full(4, 0.75))
    assert after > before


def _random_object(rng, eid, scale):
    """A scene object of 1-3 parts with random features in every role, so a
    scene's objects and parts differ in number."""
    parts = [
        PartInstance(
            eid=f"{eid}_p{i}",
            kind="bowl",
            bbox=BBox(0.2, 0.2, 0.2, 0.2),
            attrs=(),
            class_feature=rng.normal(size=16) * scale,
            attr_feature=rng.normal(size=16) * scale,
        )
        for i in range(int(rng.integers(1, 4)))
    ]
    return SceneObject(eid, "x", BBox(0.1, 0.1, 0.5, 0.5), rng.normal(size=16) * scale, parts)


@settings(max_examples=40, deadline=None)
@given(
    n_shared=st.integers(2, 7),
    n_rows=st.integers(2, 30),
    n_objects=st.integers(1, 160),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_pool_scores_equal_the_reference_in_every_role(n_shared, n_rows, n_objects, seed):
    rng = np.random.default_rng(seed)
    xb = ExemplarBase()
    shared = [rng.normal(size=16) for _ in range(n_rows)]
    members = [f"shared{i}" for i in range(n_shared)]
    for concept in members:
        # each member adds the same rows in its own order, with its own split
        signs = rng.integers(0, 2, size=n_rows).astype(bool)
        signs[:2] = True, False
        order = rng.permutation(n_rows)
        for j in order:
            xb.add(concept, shared[j], positive=bool(signs[j]))
    for i in range(int(rng.integers(2, 12))):
        xb.add("own", rng.normal(size=16), positive=i % 2 == 0)
    xb.add("posOnly", shared[0], positive=True)
    xb.add("negOnly", rng.normal(size=16), positive=False)
    concepts = [*members, "own", "posOnly", "negOnly", "unknown"]
    assert len(xb._scoring_plan(tuple(members)).pools) == 1
    scale = rng.uniform(0.1, 3.0)
    scene = [_random_object(rng, f"o{i}", scale) for i in range(n_objects)]
    sg = build_scene_graph(scene, xb, concepts, concepts)
    # one class call scores the objects' rows and then the parts': each row
    # must land on its own entity and take its own role's gain
    for obj in scene:
        for c in concepts:
            obj_score = sg.nodes[obj.eid].class_scores[c]
            assert obj_score == _reference_score(xb, c, obj.class_feature, KERNEL_GAIN, 0.0)
        for part in obj.parts:
            part_node = sg.nodes[part.eid]
            for c in concepts:
                assert part_node.class_scores[c] == _reference_score(
                    xb, c, part.class_feature, PART_GAIN, 0.0
                )
                assert part_node.attr_scores[c] == _reference_score(
                    xb, c, part.attr_feature, ATTR_GAIN, ATTR_BIAS
                )


def _full_matrix_bandwidth(exemplars):
    """`_bandwidth` over the full (m, m) distance matrix, of which it keeps
    the pairs above the diagonal."""
    if len(exemplars) < 2:
        return 1.0
    x = np.stack(exemplars)
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    dists = np.sqrt(d2[np.triu_indices(len(x), k=1)])
    return max(float(np.median(dists)), perception.BANDWIDTH_FLOOR)


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(0, 130),
    n_repeated=st.integers(0, 4),
    scale=st.sampled_from([1e-5, 0.1, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bandwidth_equals_the_full_matrix_median(n_rows, n_repeated, scale, seed):
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=16) * scale for _ in range(n_rows)]
    rows += rows[:n_repeated]  # a repeated row gives a zero distance
    assert _bandwidth(rows) == _full_matrix_bandwidth(rows)


def _np_median_bandwidth(exemplars):
    """`_bandwidth` with the median of the i<j distances taken by `np.median`."""
    x = np.stack(exemplars)
    i, j = np.triu_indices(len(x), k=1)
    dists = np.sqrt(np.sum((x[i] - x[j]) ** 2, axis=-1))
    return max(float(np.median(dists)), perception.BANDWIDTH_FLOOR)


@settings(max_examples=80, deadline=None)
@given(
    n_rows=st.integers(2, 200),
    n_distinct=st.integers(1, 200),
    on_grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bandwidth_takes_np_medians_median(n_rows, n_distinct, on_grid, seed):
    rng = np.random.default_rng(seed)
    # rows drawn from fewer distinct ones repeat, and rows on a small integer
    # grid share distances: ties at and around the middle of the distances
    shape = (n_distinct, 16)
    distinct = rng.integers(0, 3, size=shape) if on_grid else rng.normal(size=shape)
    rows = list(distinct[rng.integers(n_distinct, size=n_rows)].astype(float))
    assert _bandwidth(rows) == _np_median_bandwidth(rows)


@pytest.mark.parametrize("seed", range(8))
def test_pool_bandwidth_equals_each_concepts_own(domain, seed):
    xb = ExemplarBase()
    init_priors(xb, FeatureModel(domain, seed=0), np.random.default_rng([seed, 3]))
    for group in (domain.parts, domain.attributes):
        # every concept of a group holds the same prior rows: one pool
        (pool,) = xb._scoring_plan(tuple(group)).pools
        for c in group:
            pos, neg = xb.positive[c], xb.negative[c]
            assert pool.bandwidth == _bandwidth(pos + neg)


def test_adding_to_one_pool_member_rescores_only_that_member(model, domain, monkeypatch):
    monkeypatch.setattr(perception, "PRIORS_PER_CLASS", 2)
    rng = np.random.default_rng(5)
    xb = ExemplarBase()
    init_priors(xb, model, rng)
    attrs = list(domain.attributes)
    parts = [p for obj in generate_scene(model, "brandyGlass", rng, 3) for p in obj.parts]
    features = np.stack([p.attr_feature for p in parts])
    before = score_fewshot(xb, attrs, features, ATTR_GAIN, ATTR_BIAS)
    xb.add("wide", features[0], positive=True)
    after = score_fewshot(xb, attrs, features, ATTR_GAIN, ATTR_BIAS)
    assert after["wide"][0] > before["wide"][0]
    others = [a for a in attrs if a != "wide"]
    for a in others:
        assert np.array_equal(after[a], before[a])
    # `wide` left the pool its prior rows shared with the other attributes
    (shared,), (wide,) = (xb._scoring_plan(c).pools for c in (tuple(others), ("wide",)))
    assert wide is not shared and set(xb._scoring_plan(tuple(attrs)).pools) == {shared, wide}


def test_a_class_exemplar_rebuilds_only_the_class_roles_scoring_plan(model, domain, monkeypatch):
    monkeypatch.setattr(perception, "PRIORS_PER_CLASS", 2)
    rng = np.random.default_rng(6)
    xb = ExemplarBase()
    init_priors(xb, model, rng)
    classes = ["brandyGlass", "burgundyGlass"]
    feature = model.sample_object(classes[0], "x", rng).class_feature
    xb.process_correction(classes[1], classes[0], feature)
    class_concepts, attrs = classes + list(domain.parts), list(domain.attributes)
    builds = []
    real_build = perception._ScoringPlan.build

    def spy_build(xb, concepts):
        builds.append(concepts)
        return real_build(xb, concepts)

    monkeypatch.setattr(perception._ScoringPlan, "build", staticmethod(spy_build))

    def perceive():
        scene = generate_scene(model, "brandyGlass", rng, 1)
        sg = build_scene_graph(scene, xb, class_concepts, attrs)
        plans = xb._plans[tuple(class_concepts)][1], xb._plans[tuple(attrs)][1]
        return scene, sg, plans

    _, _, (class_plan, attr_plan) = perceive()
    assert builds == [tuple(class_concepts), tuple(attrs)]
    _, _, again = perceive()  # nothing moved: both plans are reused
    assert again == (class_plan, attr_plan) and len(builds) == 2
    xb.add("burgundyGlass", model.sample_object("burgundyGlass", "x", rng).class_feature, True)
    scene, sg, (new_class_plan, new_attr_plan) = perceive()
    assert builds[2:] == [tuple(class_concepts)]
    assert new_class_plan is not class_plan and new_attr_plan is attr_plan
    # the rebuilt plan scores as each concept's own exemplar sets do
    for obj in scene:
        for c in classes:
            expected = _reference_score(xb, c, obj.class_feature, KERNEL_GAIN, 0.0)
            assert sg.nodes[obj.eid].class_scores[c] == expected


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(2, 40),
    n_members=st.integers(2, 6),
    n_rows_scored=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_count_group_scores_each_concept_in_concept_order(
    n_rows, n_members, n_rows_scored, seed
):
    rng = np.random.default_rng(seed)
    xb = ExemplarBase()
    shared = [rng.normal(size=16) for _ in range(n_rows)]
    n_pos = int(rng.integers(1, n_rows))
    members = [f"member{i}" for i in range(n_members)]
    for concept in members:
        # the same rows with the same number of positives, each member in
        # its own order and with its own split: one pool, one count group
        for rank, j in enumerate(rng.permutation(n_rows)):
            xb.add(concept, shared[j], positive=rank < n_pos)
    concepts = [members[0]]
    for i, member in enumerate(members[1:]):
        # a fixed-score concept between each two members: no exemplars, or
        # positives only, or negatives only
        if i % 3:
            xb.add(f"fixed{i}", shared[i % n_rows], positive=i % 3 == 1)
        concepts += [f"fixed{i}", member]
    concepts.append("unknown")
    plan = xb._scoring_plan(tuple(concepts))
    assert len(plan.pos) == len(plan.neg) == 1 and plan.exemplars.shape[0] == n_rows
    features = rng.normal(size=(n_rows_scored, 16)) * rng.uniform(0.1, 3.0)
    scores = score_fewshot(xb, concepts, features, ATTR_GAIN, ATTR_BIAS)
    assert list(scores) == concepts
    for c in concepts:
        expected = [_reference_score(xb, c, row, ATTR_GAIN, ATTR_BIAS) for row in features]
        assert scores[c].tolist() == expected, c


def test_writing_to_an_added_array_changes_no_score():
    pos, neg, extra = np.zeros(4), np.full(4, 2.0), np.full(4, 0.5)
    xb, fresh = ExemplarBase(), ExemplarBase()  # fresh gets copies nobody writes to
    xb.add("stem", pos, positive=True)
    xb.add("stem", neg, positive=False)
    fresh.add("stem", pos.copy(), positive=True)
    fresh.add("stem", neg.copy(), positive=False)
    features = np.linspace(0.0, 2.0, 12).reshape(3, 4)

    def same_scores():
        a = score_fewshot(xb, ["stem"], features)["stem"]
        return np.array_equal(a, score_fewshot(fresh, ["stem"], features)["stem"])

    pos[:] = 9.0  # before the first score
    assert same_scores()
    neg += 1.0  # after a score; the next add restacks the concept
    xb.add("stem", extra, positive=True)
    fresh.add("stem", extra.copy(), positive=True)
    extra[:] = -3.0
    assert same_scores()
    assert xb.positive["stem"][0].tolist() == [0.0] * 4
    assert not xb.positive["stem"][0].flags.writeable


# ---------------------------------------------------------------------------
# scene graphs


def test_build_scene_graph_scores_and_edges(model, domain):
    scene = generate_scene(model, "brandyGlass", np.random.default_rng(9), 1)
    xb = ExemplarBase()  # everything unknown
    sg = build_scene_graph(
        scene, xb, ["brandyGlass", *domain.parts], list(domain.attributes)
    )
    assert sg.nodes["o1"].class_scores["brandyGlass"] == 0.5
    for obj in scene:
        assert sg.object_parts[obj.eid] == [p.eid for p in obj.parts]
        for p in obj.parts:
            assert sg.edges[(obj.eid, p.eid)]["have"] == pytest.approx(1.0)
            assert set(sg.nodes[p.eid].attr_scores) == set(domain.attributes)


def test_build_scene_graph_of_no_objects_is_empty(domain, monkeypatch):
    monkeypatch.setattr(perception, "PRIORS_PER_CLASS", 1)
    xb = ExemplarBase()
    init_priors(xb, FeatureModel(domain, seed=0), np.random.default_rng(1))
    sg = build_scene_graph([], xb, ["brandyGlass", *domain.parts], list(domain.attributes))
    assert (sg.nodes, sg.edges, sg.object_parts) == ({}, {}, {})


def test_scene_graph_entities_equal_their_own_one_object_scene(model, domain, monkeypatch):
    monkeypatch.setattr(perception, "PRIORS_PER_CLASS", 2)
    rng = np.random.default_rng(4)
    xb = ExemplarBase()
    init_priors(xb, model, rng)
    classes = ["brandyGlass", "burgundyGlass", "champagneCoupe"]
    for cls, wrong in zip(classes, classes[1:] + classes[:1]):
        xb.process_correction(wrong, cls, model.sample_object(cls, "x", rng).class_feature)
    class_concepts, attrs = classes + list(domain.parts), list(domain.attributes)
    scene = generate_scene(model, "brandyGlass", rng, 2)
    sg = build_scene_graph(scene, xb, class_concepts, attrs)
    assert list(sg.object_parts) == ["o1", "o2", "o3"]
    for obj in scene:
        alone = build_scene_graph([obj], xb, class_concepts, attrs)
        assert {e: sg.nodes[e] for e in alone.nodes} == alone.nodes
        assert {k: sg.edges[k] for k in alone.edges} == alone.edges
        assert sg.object_parts[obj.eid] == alone.object_parts[obj.eid]
        # two-sided concepts were scored, not set to a fixed prior
        assert sg.nodes[obj.eid].class_scores["brandyGlass"] not in (0.5, ONE_SIDED_SCORE)
    assert len(sg.nodes) == sum(1 + len(o.parts) for o in scene)


# ---------------------------------------------------------------------------
# prior injection


def test_init_priors_covers_parts_and_attrs_only(model, domain):
    xb = ExemplarBase()
    init_priors(xb, model, np.random.default_rng([0, 3]))
    for concept in (*domain.parts, *domain.attributes):
        assert xb.positive.get(concept) or xb.negative.get(concept)
    for cls in domain.classes:
        assert not xb.positive.get(cls) and not xb.negative.get(cls)
    n_pos, n_neg = len(xb.positive["stem"]), len(xb.negative["stem"])
    # every sampled object contributes one stem (positive) and one bowl
    # (negative) exemplar for the stem concept
    assert n_pos == n_neg == 12 * len(domain.classes)
