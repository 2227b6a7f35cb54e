import pytest
from hypothesis import given, settings, strategies as st

from rposcan.mutations import (
    SLASH_PADDING,
    MutationTechnique,
    TechniqueNotApplicable,
    applicable_techniques,
    expand_stylesheet_targets,
    mutate,
)
from rposcan.payloads import NewlineVariant, build_reflection_payload, generate_nonce
from rposcan.urls import (
    MalformedUrl,
    browser_base_directory,
    parse_url,
    serialize_url,
    server_view,
)

T = MutationTechnique
P = build_reflection_payload(generate_nonce(0), NewlineVariant.LF)
PAD = "/" * SLASH_PADDING


def u(path, query=None):
    text = "http://example.com" + path
    if query is not None:
        text += "?" + query
    return parse_url(text)


def test_applicable_plain_page():
    techniques = applicable_techniques(u("/page.asp"))
    assert T.PATH_PARAM_SIMPLE in techniques
    assert T.ENCODED_PATH in techniques
    assert T.ENCODED_QUERY not in techniques
    assert T.PATH_PARAM_SLASH not in techniques
    assert T.COOKIE not in techniques


def test_applicable_semicolon_params():
    assert T.PATH_PARAM_SEMICOLON in applicable_techniques(u("/page.jsp;p1;p2"))


def test_applicable_slash_params():
    assert T.PATH_PARAM_SLASH in applicable_techniques(u("/page.php/p1/p2"))
    assert T.PATH_PARAM_SLASH not in applicable_techniques(u("/page.php/"))


def test_applicable_query_and_cookies():
    assert T.ENCODED_QUERY in applicable_techniques(u("/page.html", "k1=v1&k2=v2"))
    assert T.COOKIE in applicable_techniques(u("/x"), {"sid": "1"})


def test_fixed_ordering():
    techniques = applicable_techniques(u("/page.php/p1;a/p2", "k=v"), {"c": "1"})
    assert techniques == [
        T.PATH_PARAM_SIMPLE,
        T.PATH_PARAM_SLASH,
        T.PATH_PARAM_SEMICOLON,
        T.ENCODED_PATH,
        T.ENCODED_QUERY,
        T.COOKIE,
    ]


def test_mutate_path_param_simple():
    out = mutate(u("/page.asp"), T.PATH_PARAM_SIMPLE, P)
    assert out.url.path == f"/page.asp/{P}{PAD}"


def test_mutate_path_techniques_preserve_query():
    out = mutate(u("/page.asp", "id=9"), T.PATH_PARAM_SIMPLE, P)
    assert out.url.query == "id=9"


def test_mutate_path_param_slash():
    out = mutate(u("/page.php/param1/param2"), T.PATH_PARAM_SLASH, P)
    assert out.url.path == f"/page.php/{P}param1/{P}param2{PAD}"


def test_mutate_path_param_semicolon():
    out = mutate(u("/page.jsp;param1;param2"), T.PATH_PARAM_SEMICOLON, P)
    assert out.url.path == f"/page.jsp;{P}param1;{P}param2{PAD}"


def test_mutate_encoded_query():
    out = mutate(u("/page.html", "k1=v1&k2=v2"), T.ENCODED_QUERY, P)
    assert out.url.path == f"/page.html%3Fk1={P}v1&k2={P}v2{PAD}"
    assert out.url.query is None


@pytest.mark.parametrize("query, moved", [
    # a raw "/" would split the merged segment
    ("next=/home", f"next={P}%2Fhome"),
    # a raw "?" would start a real query and take the padding into it
    ("a=b?c", f"a={P}b%3Fc"),
])
def test_mutate_encoded_query_encodes_the_querys_own_separators(query, moved):
    out = mutate(u("/app/page.php", query), T.ENCODED_QUERY, P)
    assert out.url.path == f"/app/page.php%3F{moved}{PAD}"
    assert out.url.query is None


def test_mutate_encoded_path_canonical_equivalence():
    original = u("/dir/page.aspx")
    out = mutate(original, T.ENCODED_PATH, P)
    assert server_view(out.url) == server_view(original)
    assert P in out.url.path


def test_mutate_cookie():
    out = mutate(u("/page.php"), T.COOKIE, P, cookies={"k1": "v1", "k2": "v2"})
    assert out.url.path == f"/page.php{PAD}"
    assert out.cookies == {"k1": P + "v1", "k2": P + "v2"}
    assert P not in serialize_url(out.url)


def test_mutate_cookie_keeps_query():
    out = mutate(u("/page.php", "key=value"), T.COOKIE, P, cookies={"k": "v"})
    assert serialize_url(out.url).endswith(f"/page.php{PAD}?key=value")


def test_mutate_rejects_inapplicable():
    with pytest.raises(TechniqueNotApplicable):
        mutate(u("/page.asp"), T.ENCODED_QUERY, P)


@pytest.mark.parametrize(
    "url, cookies",
    [
        (u("/page.asp"), {}),
        (u("/page.php/p1/p2", "k=v"), {"sid": "1"}),
        (u("/page.php/"), {}),
        (u("/a;x/page.jsp;p1"), {}),
        (u("/dir/", ""), {}),
    ],
)
def test_mutate_accepts_exactly_the_applicable_techniques(url, cookies):
    applicable = applicable_techniques(url, cookies)
    for technique in T:
        if technique in applicable:
            mutate(url, technique, P, cookies=cookies)
        else:
            with pytest.raises(TechniqueNotApplicable):
                mutate(url, technique, P, cookies=cookies)


def test_expand_stylesheet_targets():
    mutated = mutate(u("/page.asp"), T.PATH_PARAM_SIMPLE, P)
    targets = expand_stylesheet_targets(mutated.url, ["../style.css"], [])
    assert [t.path for t in targets] == [f"/page.asp/{P}{PAD[1:]}style.css"]


def test_expand_deduplicates_preserving_order():
    mutated = mutate(u("/page.asp"), T.PATH_PARAM_SIMPLE, P)
    targets = expand_stylesheet_targets(mutated.url, ["a.css", "b.css", "a.css"], [])
    assert [t.path.rsplit("/", 1)[1] for t in targets] == ["a.css", "b.css"]


@pytest.mark.parametrize("depth", range(20))
def test_padding_sufficiency(depth):
    mutated = mutate(u("/page.asp"), T.PATH_PARAM_SIMPLE, P)
    ref = "../" * depth + "style.css"
    resolved = expand_stylesheet_targets(mutated.url, [ref], [])[0]
    assert P in resolved.path


_PATHS = st.lists(
    st.sampled_from(["a", "dir", "page.aspx", "x7", "p%41q", "idx.php", "v-2"]),
    min_size=1,
    max_size=4,
).map(lambda segs: "/" + "/".join(segs))


@settings(max_examples=200)
@given(_PATHS)
def test_encoded_path_equivalence_on_corpus(path):
    original = u(path)
    out = mutate(original, T.ENCODED_PATH, P)
    assert server_view(out.url) == server_view(original)


@settings(max_examples=100)
@given(_PATHS, st.sampled_from(list(T)))
def test_host_scheme_preserved_and_views_diverge(path, technique):
    original = u(path, "k=v")
    cookies = {"sid": "abc"}
    if technique not in applicable_techniques(original, cookies):
        return
    out = mutate(original, technique, P, cookies=cookies)
    assert out.url.host == original.host
    assert out.url.scheme == original.scheme
    diverged = browser_base_directory(out.url) != browser_base_directory(original)
    assert diverged or out.cookies != cookies


# segments with and without script extensions, empty and non-empty ";"
# parameters, and queries with and without "=" pairs
_PARAM_PATHS = st.lists(
    st.sampled_from(["a", "page.php", "page.jsp;", "page.jsp;p1", "x;;", ";", "p;", ";q", ""]),
    min_size=1,
    max_size=4,
).map(lambda segs: "/" + "/".join(segs))
_QUERIES = st.sampled_from([None, "", "flag", "a&b", "&", "k=v", "k=", "=v", "flag&k=v"])
_COOKIES = st.sampled_from([{}, {"sid": ""}, {"sid": "1", "lang": "en"}])


@settings(max_examples=300)
@given(_PARAM_PATHS, _QUERIES, _COOKIES)
def test_every_applicable_technique_carries_the_payload(path, query, cookies):
    url = u(path, query)
    for technique in applicable_techniques(url, cookies):
        out = mutate(url, technique, P, cookies=cookies)
        if technique is T.COOKIE:
            assert out.cookies == {name: P + value for name, value in cookies.items()}
        else:  # a URL technique sends the seed cookies as they are
            assert P in serialize_url(out.url), (technique, serialize_url(url))
            assert out.cookies == cookies


@pytest.mark.parametrize("technique", [t for t in T if t is not T.COOKIE])
def test_raw_slash_in_payload_is_rejected(technique):
    # every technique but the cookie puts the payload into a path segment
    url = u("/app/page.php;a/x", "k=v")
    assert technique in applicable_techniques(url)
    with pytest.raises(MalformedUrl, match="raw slash"):
        mutate(url, technique, "a/b")


def test_mutated_request_and_its_url_are_immutable():
    mutated = mutate(u("/page.asp"), T.COOKIE, P, cookies={"sid": "1"})
    for obj, name, value in [
        (mutated, "url", u("/other.asp")),
        (mutated, "cookies", {}),
        (mutated.url, "path_segments", ("x",)),
        (mutated.url, "host", "other.test"),
    ]:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert mutated.url == mutate(u("/page.asp"), T.COOKIE, P, cookies={"sid": "1"}).url
