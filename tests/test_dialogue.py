"""Template grammar: morphology, parsing, realization, round trips,
neologism handling, transcript format."""

from dataclasses import replace

import pytest

from groundsim.agents import domain_lexicon
from groundsim.dialogue import (
    CORRECT,
    NOT_SURE,
    SEP,
    ParseError,
    RealizeError,
    Utterance,
    article,
    parse,
    pluralize,
    pred_name_for,
    realize,
    singularize,
    transcript_line,
)
from groundsim.logic import (
    Atom,
    Const,
    Prop,
    Ques,
    attr_pred,
    cls_pred,
    derive_neg_implicature,
    instance_prop,
    skolemize_part_description,
)
from groundsim.memory import Lexicon
from groundsim.perception import DomainSpec
from groundsim.reasoner import polar_ques


@pytest.fixture()
def lexicon():
    return domain_lexicon(DomainSpec.builtin_glasses())


# ---------------------------------------------------------------------------
# morphology


@pytest.mark.parametrize(
    "singular,plural",
    [
        ("brandy glass", "brandy glasses"),
        ("stem", "stems"),
        ("champagne coupe", "champagne coupes"),
        ("box", "boxes"),
        ("brush", "brushes"),
    ],
)
def test_pluralize_singularize_inverse(singular, plural):
    assert pluralize(singular) == plural
    assert singularize(plural) == singular


def test_article():
    assert article("stem") == "a"
    assert article("elliptical bowl") == "an"


def test_pred_name_for_camel_cases():
    assert pred_name_for("brandy glass") == "brandyGlass"
    assert pred_name_for("stem") == "stem"


# ---------------------------------------------------------------------------
# parsing


def test_parse_each_template(lexicon):
    eid = "o1"
    assert parse("Correct.", lexicon) == CORRECT
    assert parse("I am not sure.", lexicon) == NOT_SURE
    wh = parse("What is this?", lexicon, eid)
    assert isinstance(wh, Ques) and wh.kind == "wh" and wh.var == "P"

    inst = parse("This is a brandy glass.", lexicon, eid)
    assert inst.cons[0] == Atom(cls_pred("brandyGlass"), (Const(eid),))
    assert not inst.cons_negated
    neg = parse("This is not a brandy glass.", lexicon, eid)
    assert neg.cons_negated

    polar = parse("Is this a martini glass?", lexicon, eid)
    assert polar.kind == "polar" and not polar.prop.cons_negated

    has = parse("This has a short stem.", lexicon, eid)
    assert len(has.cons) == 3 and not has.generic

    gen = parse("Brandy glasses have short stems.", lexicon)
    assert gen == skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
    )

    diff = parse("How are brandy glasses and burgundy glasses different?", lexicon)
    assert diff.kind == "conceptDiff"
    assert diff.pair == (cls_pred("brandyGlass"), cls_pred("burgundyGlass"))


def test_parse_requires_demonstratum():
    lex = Lexicon()
    with pytest.raises(ParseError):
        parse("What is this?", lex)
    with pytest.raises(ParseError):
        parse("This is a brandy glass.", lex)


def test_parse_rejects_non_template(lexicon):
    with pytest.raises(ParseError):
        parse("Hello there.", lexicon, "o1")
    with pytest.raises(ParseError):
        parse("This is brandy glass.", lexicon, "o1")  # missing article


def test_parse_introduces_neologisms():
    lex = Lexicon()
    prop = parse("This is a snifter glass.", lex, "o1")
    assert prop.cons[0].pred == cls_pred("snifterGlass")
    assert lex.lookup_surface("snifter glass", "noun").pred == cls_pred("snifterGlass")
    gen = parse("Snifter glasses have curved handles.", lex)
    assert gen.generic
    assert lex.lookup_pred("curved") is not None and lex.lookup_pred("handle") is not None


# ---------------------------------------------------------------------------
# realization


def test_realize_each_template(lexicon):
    eid = "o1"
    assert realize(CORRECT, lexicon) == "Correct."
    assert realize(NOT_SURE, lexicon) == "I am not sure."
    assert realize(parse("What is this?", lexicon, eid), lexicon) == "What is this?"
    assert (
        realize(parse("This is an elliptical bowl.", lexicon, eid), lexicon)
        == "This is an elliptical bowl."
    )
    assert (
        realize(parse("Brandy glasses have short stems.", lexicon), lexicon)
        == "Brandy glasses have short stems."
    )
    assert (
        realize(
            parse("How are champagne coupes and martini glasses different?", lexicon),
            lexicon,
        )
        == "How are champagne coupes and martini glasses different?"
    )


def test_realize_errors(lexicon):
    with pytest.raises(RealizeError):
        realize("Maybe", lexicon)
    with pytest.raises(RealizeError):
        realize(
            Prop(
                ante=(),
                cons=(Atom(cls_pred("unknownThing"), (Const("o1"),)),),
            ),
            lexicon,
        )
    # the instance template and the polar question demand a class predicate
    with pytest.raises(RealizeError):
        realize(
            Prop(
                ante=(),
                cons=(Atom(attr_pred("short"), (Const("o1"),)),),
            ),
            lexicon,
        )
    with pytest.raises(RealizeError):
        realize(Ques("polar", prop=instance_prop(attr_pred("short"), "o1")), lexicon)


def test_realize_rejects_a_negated_generic(lexicon):
    # the negative implicature of a generic has no template sentence; the
    # positive one would say the opposite of the form
    positive = parse("Bordeaux glasses have elliptical bowls.", lexicon)
    negative = derive_neg_implicature(positive, cls_pred("bordeauxGlass"), cls_pred("brandyGlass"))
    assert negative.generic and negative.cons_negated
    with pytest.raises(RealizeError):
        realize(negative, lexicon)
    with pytest.raises(RealizeError):
        realize(replace(positive, cons_negated=True), lexicon)


def test_realize_rejects_a_negated_polar_question(lexicon):
    # "Is this a brandy glass?" parses back to the positive question, whose
    # answer is the complement of the negated one's
    positive = parse("Is this a brandy glass?", lexicon, "o1")
    assert positive == polar_ques("brandyGlass", "o1")
    with pytest.raises(RealizeError):
        realize(polar_ques("brandyGlass", "o1", negated=True), lexicon)


def test_realize_needs_exactly_one_attribute_part_pair(lexicon):
    # parse(realize(form)) == form needs one adjective and one part noun;
    # a second attribute, or none, has no template sentence
    for sentence in ("Brandy glasses have short stems.", "This has a short stem."):
        form = parse(sentence, lexicon, "o1")
        have, short, stem = form.cons
        conic = Atom(attr_pred("conic"), short.args)
        for cons in ((have, short, conic, stem), (have, conic, short, stem), (have, stem)):
            with pytest.raises(RealizeError):
                realize(replace(form, cons=cons), lexicon)


# ---------------------------------------------------------------------------
# round trips


SENTENCES = [
    "Correct.",
    "I am not sure.",
    "What is this?",
    "Is this a burgundy glass?",
    "This is a champagne coupe.",
    "This is not a bordeaux glass.",
    "This has a conic bowl.",
    "Martini glasses have broad bowls.",
    "How are bordeaux glasses and burgundy glasses different?",
]


@pytest.mark.parametrize("sentence", SENTENCES)
def test_surface_round_trip(lexicon, sentence):
    form = parse(sentence, lexicon, "o1")
    assert realize(form, lexicon) == sentence
    assert parse(realize(form, lexicon), lexicon, "o1") == form


# ---------------------------------------------------------------------------
# transcripts


def test_transcript_line_fields(lexicon):
    form = parse("This is a brandy glass.", lexicon, "o1")
    utt = Utterance("teacher", "This is a brandy glass.", form, "o1")
    line = transcript_line(utt)
    speaker, surface, logical = line.split(SEP)
    assert speaker == "teacher"
    assert surface == "This is a brandy glass."
    assert logical == "brandyGlass(o1)"
