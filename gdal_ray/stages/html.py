"""HTML → text extraction for web-page corpora.

The engine's input contract (north rule) is a Parquet table of
Common-Crawl-style pages ``(url, warc_ts, html:binary, text, lang)``
with the per-row invariant *byte-identical extracted text per url* —
the ``text`` column IS the extraction of the ``html`` column. This
module provides both directions:

- :class:`HtmlTextExtractor` — the WET-style extraction stage
  (stdlib ``html.parser``; no external deps): body text with
  boilerplate containers dropped, entities decoded, one line per
  leaf block.
- :func:`synthesize_html` — the deterministic inverse used to build
  test/bench corpora from the driver's ``documents`` table (no
  external data): wraps each text line in realistic page structure
  (head/title/script/style/nav/footer noise, inline markup, entity
  escaping, numeric character references) such that extraction
  recovers the original text byte-for-byte.

Extraction contract (documented so the invariant is checkable):

- Content inside ``head``, ``script``, ``style``, ``template``,
  ``noscript``, ``svg`` is dropped (non-content), as is ``nav``,
  ``aside``, ``footer`` (boilerplate — the Common-Crawl WET role).
- *Leaf blocks* — ``p h1..h6 li pre blockquote td`` — each contribute
  exactly one output line (possibly empty) in document order; inline
  elements (``a b i em strong span code`` …) inside them are
  transparent. ``<br>`` inside a leaf block contributes a literal
  newline to that block's text.
- Text directly inside container blocks (``div section article
  body`` …) flushes as its own line when non-whitespace (stripped —
  inter-tag pretty-printing is insignificant); leaf-block content is
  kept verbatim (the byte-identity path).
- Character/entity references are decoded (``&amp;`` → ``&``,
  ``&#82;`` → ``R``); output lines are joined with ``\\n``.

Parsing is inherently per-document (a Python loop over rows inside
``map_batches`` — the one hot-path row loop in the engine that cannot
vectorize; the per-doc parser is stdlib C-regex-driven and the stage
is a plain stateless callable, safe at any parallelism).
"""

from __future__ import annotations

from html import escape, unescape
from html.parser import HTMLParser

import pyarrow as pa

#: elements whose entire subtree is dropped
_SKIP = frozenset(
    "head script style template noscript svg nav aside footer".split()
)
#: leaf blocks: one output line each, flushed even when empty
_LEAF = frozenset(
    "p h1 h2 h3 h4 h5 h6 li pre blockquote td th".split()
)
#: void elements never pushed on the open stack
_VOID = frozenset(
    "br hr img meta link input area base col embed source track wbr".split()
)


class _Extractor(HTMLParser):
    """One-document text extractor (see module contract)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._skip = 0  # depth inside _SKIP subtrees
        self._leaf = 0  # depth inside leaf blocks
        self._buf: list[str] = []
        self._lines: list[str] = []

    # -- flush helpers ---------------------------------------------------
    def _flush(self, always: bool) -> None:
        text = "".join(self._buf)
        self._buf.clear()
        if always:
            # leaf block: verbatim (the byte-identity path)
            self._lines.append(text)
        else:
            # container text: inter-tag whitespace is insignificant
            text = text.strip()
            if text:
                self._lines.append(text)

    # -- parser callbacks ------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _VOID:
            if tag == "br" and self._skip == 0 and self._leaf > 0:
                self._buf.append("\n")
            return
        if tag in _SKIP:
            self._skip += 1
            return
        if self._skip:
            return
        if tag in _LEAF:
            # stray container text before the block becomes its own line
            self._flush(always=False)
            self._leaf += 1

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP:
            self._skip = max(0, self._skip - 1)
            return
        if self._skip:
            return
        if tag in _LEAF and self._leaf > 0:
            self._leaf -= 1
            self._flush(always=True)

    def handle_data(self, data: str) -> None:
        if not self._skip and data:
            self._buf.append(data)

    # -- result ----------------------------------------------------------
    def text(self) -> str:
        self.close()
        self._flush(always=False)
        return "\n".join(self._lines)


def extract_text(html: bytes | str) -> str:
    """Extract the text of one page per the module contract."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    p = _Extractor()
    p.feed(html)
    return p.text()


class HtmlTextExtractor:
    """Stage (``stages.cache.worker_cached``): ``html`` binary column →
    ``text`` string."""

    def __init__(self, html_col: str = "html", out_col: str = "text",
                 drop_html: bool = True) -> None:
        self.html_col = html_col
        self.out_col = out_col
        self.drop_html = drop_html

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = [extract_text(h) for h in batch[self.html_col].to_pylist()]
        if self.drop_html:
            batch = batch.drop_columns([self.html_col])
        return batch.append_column(self.out_col, pa.array(texts, pa.string()))


# ---------------------------------------------------------------------------
# deterministic synthesis (test/bench corpora only)


def _synth_paragraph(line: str, i: int, url: str) -> str:
    """One leaf block per text line; the wrapper variant cycles with
    the line index so inline markup, links and charrefs are all
    exercised. Every variant extracts back to exactly ``line``."""
    e = escape(line, quote=False)
    v = i % 4
    if v == 1 and len(line) >= 2:
        mid = len(line) // 2
        return (f"<p><b>{escape(line[:mid], quote=False)}</b>"
                f"<span class=x>{escape(line[mid:], quote=False)}</span></p>")
    if v == 2:
        return f'<p><a href="{escape(url)}">{e}</a></p>'
    if v == 3 and line:
        # first char as a numeric character reference — but only when the
        # HTML5 charref decode round-trips: parsers drop/remap charrefs to
        # noncharacters, C1 controls etc. (html._invalid_codepoints), so
        # those first chars fall through to the plain-escape variant.
        ref = f"&#{ord(line[0])};"
        if unescape(ref) == line[0]:
            return f"<h2>{ref}{escape(line[1:], quote=False)}</h2>"
    return f"<p>{e}</p>"


def synthesize_html(url: str, text: str, lang: str = "en",
                    warc_ts_us: int = 0) -> bytes:
    """Deterministic Common-Crawl-style page whose WET extraction is
    byte-identical to ``text`` (the north-rule invariant, inverted).
    Head/title/script/style/nav/footer noise is all inside containers
    the extractor drops."""
    lines = text.split("\n")
    body = "\n".join(_synth_paragraph(ln, i, url) for i, ln in enumerate(lines))
    title = escape(lines[0][:40] if lines else "", quote=False)
    page = (
        "<!DOCTYPE html>\n"
        f'<html lang="{escape(lang)}">\n'
        f"<head><meta charset=\"utf-8\"><title>{title}</title>\n"
        f"<script>var crawled={warc_ts_us};</script>"
        "<style>p{margin:0}</style></head>\n"
        "<body>\n"
        '<nav><a href="/">home</a> &middot; <a href="/about">about</a></nav>\n'
        f"<!-- warc_ts {warc_ts_us} -->\n"
        f'<div id="main">\n{body}\n</div>\n'
        "<footer>&copy; example crawl fixture</footer>\n"
        "</body></html>\n"
    )
    return page.encode("utf-8")


def synthesize_html_batch(batch: pa.Table, url_col: str = "url",
                          text_col: str = "text", lang_col: str = "lang",
                          ts_col: str = "warc_ts",
                          out_col: str = "html") -> pa.Table:
    """``map_batches`` kernel: add an ``html`` binary column derived
    from (url, text, lang, warc_ts) — the fixture generator for the
    extraction invariant at any scale."""
    urls = batch[url_col].to_pylist()
    texts = batch[text_col].to_pylist()
    langs = batch[lang_col].to_pylist() if lang_col in batch.column_names \
        else ["en"] * batch.num_rows
    if ts_col in batch.column_names:
        ts = batch[ts_col].cast(pa.int64()).to_pylist()
    else:
        ts = [0] * batch.num_rows
    html = [
        synthesize_html(u or "", t or "", lg or "en", s or 0)
        for u, t, lg, s in zip(urls, texts, langs, ts)
    ]
    return batch.append_column(out_col, pa.array(html, pa.binary()))
