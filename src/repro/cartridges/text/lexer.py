"""Text tokenization and the PARAMETERS string of the text indextype.

The paper's example::

    CREATE INDEX ResumeTextIndex ON Employees(resume)
    INDEXTYPE IS TextIndexType
    PARAMETERS (':Language English :Ignore the a an');

"the parameters string identifies the language of the text document
(thus identifying the lexical analyzer to use), and the list of stop
words which are to be ignored while creating the text index."  ALTER
INDEX with ``':Ignore COBOL'`` extends the stop list.  The catalog keeps
the string as :meth:`TextParameters.render` writes it.
"""

from __future__ import annotations

import re
from collections import _count_elements
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

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


@dataclass(frozen=True)
class TextParameters:
    """Parsed PARAMETERS string of a text domain index: the language and
    the user's ``:Ignore`` words.  The stop list is the language's
    defaults plus those words."""

    language: str = "english"
    ignore: FrozenSet[str] = frozenset()

    @property
    def stopwords(self) -> FrozenSet[str]:
        """The words the index ignores."""
        return frozenset(DEFAULT_STOPWORDS[self.language]) | self.ignore

    @classmethod
    def parse(cls, parameters: str,
              base: "TextParameters | None" = None) -> "TextParameters":
        """Parse a ``:Keyword value...`` parameters string.

        ``base`` carries existing settings for ALTER INDEX semantics:
        ``:Ignore`` *extends* the ignored words, ``:Language`` replaces
        the language (and its default stop list).
        """
        language = base.language if base is not None else "english"
        ignore: Set[str] = set(base.ignore) if base is not None else set()
        tokens = parameters.split()
        i = 0
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
                i += 1
            elif keyword == "ignore":
                while i < len(tokens) and not tokens[i].startswith(":"):
                    ignore.add(tokens[i].lower())
                    i += 1
            else:
                raise ODCIError("TextParameters",
                                f"unknown parameter :{keyword}")
        if language not in DEFAULT_STOPWORDS:
            raise ODCIError("TextParameters",
                            f"unsupported language {language!r}")
        return cls(language=language, ignore=frozenset(ignore))

    def render(self) -> str:
        """The canonical PARAMETERS string: ``:Language <Name>`` and, when
        there are any, ``:Ignore`` and the user's words in order."""
        rendered = f":Language {self.language.capitalize()}"
        if self.ignore:
            rendered += " :Ignore " + " ".join(sorted(self.ignore))
        return rendered


class TextLexer:
    """The lexical analyzer selected by the ``:Language`` parameter.

    Without parameters it ignores no word.
    """

    def __init__(self, params: Optional[TextParameters] = None):
        self.stopwords = params.stopwords if params is not None \
            else frozenset()

    def tokens(self, text: str) -> List[str]:
        """All non-stopword tokens of ``text``, lower-cased, in order.

        Lower-cases the document once and extracts matches with
        ``findall`` (one C call) rather than lowering match objects one
        by one — the word class is case-closed, so pre-lowering cannot
        change token boundaries.
        """
        if not text:
            return []
        stop = self.stopwords
        return [w for w in _WORD.findall(text.lower()) if w not in stop]

    def term_frequencies(self, text: str) -> Dict[str, int]:
        """token → occurrence count for ``text``: the one routine the
        build, the maintenance routines and the functional Contains lex
        a document with.

        Counts every token into a plain dict in one C pass
        (``collections._count_elements``, what ``Counter.update`` runs),
        then drops the stop words among the *distinct* tokens.  Each
        token is the dict's first occurrence of it; the build's buckets
        then share that one string across the documents.
        """
        counts: Dict[str, int] = {}
        if text:
            _count_elements(counts, _WORD.findall(text.lower()))
            for word in self.stopwords.intersection(counts):
                del counts[word]
        return counts


def tokenize(text: str, stopwords: Iterable[str] = ()) -> List[str]:
    """One-shot tokenizer: the tokens of ``text`` but ``stopwords``."""
    stop = {w.lower() for w in stopwords}
    return [w for w in _WORD.findall((text or "").lower()) if w not in stop]
