"""Chart text escaping, checked against the standard library's XML escape
and an XML parser. The tests may import `xml`; the package may not."""

import xml.etree.ElementTree as ET
from xml.sax import saxutils

from hypothesis import given
from hypothesis import strategies as st

from wtalab import _svgchart
from wtalab._svgchart import line_chart

SVG_TEXT = "{http://www.w3.org/2000/svg}text"

TITLE = 'Loss & "gain" <by> epoch\'s &amp; end'
X_LABEL = "epoch <t> & 'x'"
Y_LABEL = 'min_ade "m" > 0 &lt;'
NAMES = ("awta & <wta>", "\"ewta\" 'k' &amp;")


def chart() -> str:
    series = [
        (NAMES[0], [0.0, 1.0, 2.0], [3.0, 2.0, 1.5]),
        (NAMES[1], [0.0, 1.0, 2.0], [2.5, 2.4, 2.2]),
    ]
    return line_chart(series, TITLE, X_LABEL, Y_LABEL)


def test_escape_matches_saxutils_byte_for_byte(monkeypatch):
    ours = chart()
    monkeypatch.setattr(_svgchart, "escape", saxutils.escape)
    assert chart().encode() == ours.encode()


def test_every_text_node_reads_back_as_its_input():
    root = ET.fromstring(chart())
    texts = [node.text for node in root.iter(SVG_TEXT)]
    # Title, five x and five y tick labels, the two axis labels, one legend
    # entry per series.
    assert len(texts) == 1 + 10 + 2 + len(NAMES)
    assert texts[0] == TITLE
    assert texts[11:] == [X_LABEL, Y_LABEL, *NAMES]


@given(st.text())
def test_escape_agrees_with_saxutils_on_any_text(text):
    assert _svgchart.escape(text) == saxutils.escape(text)
