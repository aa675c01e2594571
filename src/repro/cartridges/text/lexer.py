"""Text tokenization and the PARAMETERS string of the text indextype.

The paper's example::

    CREATE INDEX ResumeTextIndex ON Employees(resume)
    INDEXTYPE IS TextIndexType
    PARAMETERS (':Language English :Ignore the a an');

"the parameters string identifies the language of the text document
(thus identifying the lexical analyzer to use), and the list of stop
words which are to be ignored while creating the text index."  ALTER
INDEX with ``':Ignore COBOL'`` extends the stop list.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.errors import ODCIError

#: Default per-language stop lists (tiny but real).
DEFAULT_STOPWORDS: Dict[str, Set[str]] = {
    "english": {"a", "an", "and", "are", "as", "at", "be", "by", "for",
                "from", "has", "he", "in", "is", "it", "its", "of", "on",
                "or", "that", "the", "to", "was", "were", "will", "with"},
    "german": {"der", "die", "das", "und", "oder", "ein", "eine", "ist",
               "im", "mit", "von", "zu", "auf"},
    "french": {"le", "la", "les", "un", "une", "et", "ou", "est", "de",
               "du", "des", "en", "avec"},
}

_WORD = re.compile(r"[A-Za-z0-9_]+")


@dataclass
class TextParameters:
    """Parsed PARAMETERS string of a text domain index."""

    language: str = "english"
    stopwords: Set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, parameters: str,
              base: "TextParameters | None" = None) -> "TextParameters":
        """Parse a ``:Keyword value...`` parameters string.

        ``base`` carries existing settings for ALTER INDEX semantics:
        ``:Ignore`` *extends* the stop list, ``:Language`` replaces the
        language (and its default stop list).
        """
        language = base.language if base is not None else "english"
        extra: Set[str] = set(base.stopwords) if base is not None else set()
        tokens = parameters.split()
        i = 0
        language_given = False
        while i < len(tokens):
            token = tokens[i]
            if not token.startswith(":"):
                raise ODCIError("TextParameters",
                                f"expected a :Keyword, got {token!r}")
            keyword = token[1:].lower()
            i += 1
            if keyword == "language":
                if i >= len(tokens):
                    raise ODCIError("TextParameters", ":Language needs a value")
                language = tokens[i].lower()
                language_given = True
                i += 1
            elif keyword == "ignore":
                while i < len(tokens) and not tokens[i].startswith(":"):
                    extra.add(tokens[i].lower())
                    i += 1
            else:
                raise ODCIError("TextParameters",
                                f"unknown parameter :{keyword}")
        if language not in DEFAULT_STOPWORDS:
            raise ODCIError("TextParameters",
                            f"unsupported language {language!r}")
        params = cls(language=language)
        if base is None or language_given:
            params.stopwords = set(DEFAULT_STOPWORDS[language]) | extra
        else:
            params.stopwords = extra | set(DEFAULT_STOPWORDS[language])
        return params

    def render(self) -> str:
        """Serialize back to a PARAMETERS string (settings persistence)."""
        ignore = " ".join(sorted(self.stopwords))
        return f":Language {self.language} :Ignore {ignore}".strip()


class TextLexer:
    """The lexical analyzer selected by the ``:Language`` parameter."""

    def __init__(self, params: TextParameters):
        self.params = params

    def tokens(self, text: str) -> List[str]:
        """All non-stopword tokens of ``text``, lower-cased, in order.

        Lower-cases the document once and extracts matches with
        ``findall`` (one C call) rather than lowering match objects one
        by one — the word class is case-closed, so pre-lowering cannot
        change token boundaries.
        """
        if not text:
            return []
        stop = self.params.stopwords
        return [w for w in _WORD.findall(text.lower()) if w not in stop]

    def term_frequencies(self, text: str) -> Dict[str, int]:
        """token → occurrence count for ``text``.

        The tokens are interned: this is what index rows are built
        from, and a term's postings then share one string instead of
        holding a copy per document.
        """
        return Counter(map(sys.intern, self.tokens(text)))


def tokenize(text: str, stopwords: Iterable[str] = ()) -> List[str]:
    """Convenience one-shot tokenizer used by the functional operator."""
    params = TextParameters(language="english", stopwords=set(
        w.lower() for w in stopwords))
    return TextLexer(params).tokens(text)
