"""URL synthesis for generated websites.

URL *shape* matters to the reproduced system in two ways: the online URL
classifier (Sec. 3.3) learns from character 2-grams of URLs, and the
paper stresses that extensionless URLs (e.g. ``/node/9961`` on French
government sites or ILO publication pages) defeat extension-based
heuristics.  The synthesiser therefore supports several URL styles and
more than 20 language vocabularies are approximated with per-language
slug word lists.
"""

from __future__ import annotations

import random

# Per-language slug vocabularies.  Small but distinct: what matters is that
# URLs of different sites and sections look different at the character
# 2-gram level, like on the real multilingual sites of Table 1.
_SLUG_WORDS: dict[str, list[str]] = {
    "en": [
        "report", "statistics", "data", "survey", "publication", "annual",
        "education", "health", "economy", "labour", "population", "trade",
        "poverty", "employment", "indicators", "figures", "analysis",
        "census", "budget", "regional", "national", "overview", "results",
        "methodology", "release", "archive", "bulletin", "summary",
    ],
    "fr": [
        "rapport", "statistiques", "donnees", "enquete", "publication",
        "annuel", "education", "sante", "economie", "travail", "population",
        "commerce", "pauvrete", "emploi", "indicateurs", "chiffres",
        "analyse", "recensement", "budget", "regional", "national",
        "synthese", "resultats", "methodologie", "parution", "archives",
        "bulletin", "ministere", "justice", "interieur",
    ],
    "ja": [
        "toukei", "chousa", "houkoku", "nenji", "kyouiku", "kenkou",
        "keizai", "roudou", "jinkou", "boueki", "koyou", "shihyou",
        "bunseki", "kokusei", "yosan", "chiiki", "zenkoku", "kekka",
        "soumu", "gyousei", "shiryou", "happyou",
    ],
    "ar": [
        "ihsaat", "taqrir", "bayanat", "mash", "nashra", "sanawi",
        "taalim", "siha", "iqtisad", "amal", "sukkan", "tijara",
        "muasherat", "tahlil", "mizaniya", "natayij",
    ],
    "es": [
        "informe", "estadisticas", "datos", "encuesta", "publicacion",
        "anual", "educacion", "salud", "economia", "trabajo", "poblacion",
        "comercio", "pobreza", "empleo", "indicadores", "cifras",
        "analisis", "censo", "presupuesto", "resultados",
    ],
}

_SECTION_WORDS: dict[str, list[str]] = {
    "en": [
        "topics", "publications", "data", "statistics", "about", "news",
        "resources", "programs", "surveys", "library", "media", "services",
    ],
    "fr": [
        "themes", "publications", "donnees", "statistiques", "actualites",
        "ressources", "programmes", "enquetes", "documentation", "presse",
        "services", "ministere",
    ],
    "ja": [
        "menu", "toukei", "seisaku", "news", "shiryou", "soshiki",
        "kouhou", "chousa",
    ],
    "ar": ["mawadi", "nasharat", "bayanat", "ihsaat", "akhbar", "mawarid"],
    "es": ["temas", "publicaciones", "datos", "estadisticas", "noticias",
           "recursos", "programas", "encuestas"],
}

#: Extensions used for target URLs when the style exposes extensions.
_TARGET_EXTENSIONS: dict[str, str] = {
    "application/pdf": ".pdf",
    "text/csv": ".csv",
    "application/vnd.ms-excel": ".xls",
    "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet": ".xlsx",
    "application/vnd.oasis.opendocument.spreadsheet": ".ods",
    "application/zip": ".zip",
    "application/json": ".json",
    "application/xml": ".xml",
    "text/comma-separated-values": ".tsv",
    "application/msword": ".doc",
    "application/x-gzip": ".gz",
}


class UrlFactory:
    """Generates unique in-site URLs in a configurable style.

    Styles
    ------
    ``"path"``
        Clean hierarchical paths without extensions
        (``/statistics/annual-report-2024``).
    ``"extension"``
        Hierarchical paths where HTML pages end in ``.html`` and targets
        carry their real extension.
    ``"node"``
        CMS-style opaque identifiers (``/node/48213``); targets are
        extensionless too — the hard case motivating the URL classifier.
    ``"query"``
        Query-string routing (``/index.php?id=1234``).
    """

    def __init__(
        self,
        base_url: str,
        style: str = "path",
        languages: tuple[str, ...] = ("en",),
        seed: int = 0,
    ) -> None:
        if style not in ("path", "extension", "node", "query"):
            raise ValueError(f"unknown URL style: {style}")
        self.base_url = base_url.rstrip("/")
        self.style = style
        self.languages = languages
        self._rng = random.Random(seed)
        self._used: set[str] = set()
        self._counter = 1000

    # -- helpers --------------------------------------------------------

    def _slug(self, language: str, n_words: int = 2) -> str:
        words = _SLUG_WORDS.get(language, _SLUG_WORDS["en"])
        return "-".join(self._rng.choice(words) for _ in range(n_words))

    def _lang_prefix(self, language: str) -> str:
        if len(self.languages) <= 1:
            return ""
        return f"/{language}"

    def _unique(self, candidate: str) -> str:
        url = candidate
        while url in self._used:
            self._counter += 1
            url = f"{candidate}-{self._counter}"
        self._used.add(url)
        return url

    def _next_id(self) -> int:
        self._counter += self._rng.randint(1, 97)
        return self._counter

    # -- public API -------------------------------------------------------

    def root(self) -> str:
        url = f"{self.base_url}/"
        self._used.add(url)
        return url

    def section_url(self, language: str, section_slug: str) -> str:
        prefix = self._lang_prefix(language)
        if self.style == "query":
            return self._unique(f"{self.base_url}/index.php?section={section_slug}")
        if self.style == "node":
            return self._unique(f"{self.base_url}{prefix}/taxonomy/term/{self._next_id()}")
        suffix = ".html" if self.style == "extension" else ""
        return self._unique(f"{self.base_url}{prefix}/{section_slug}{suffix}")

    def html_url(self, language: str, section_slug: str) -> str:
        prefix = self._lang_prefix(language)
        if self.style == "query":
            return self._unique(f"{self.base_url}/index.php?id={self._next_id()}")
        if self.style == "node":
            return self._unique(f"{self.base_url}{prefix}/node/{self._next_id()}")
        slug = self._slug(language)
        suffix = ".html" if self.style == "extension" else ""
        return self._unique(f"{self.base_url}{prefix}/{section_slug}/{slug}{suffix}")

    def target_url(self, language: str, section_slug: str, mime_type: str) -> str:
        prefix = self._lang_prefix(language)
        if self.style == "node":
            # Extensionless downloads, like ILO publication pages.
            return self._unique(
                f"{self.base_url}{prefix}/system/files/download/{self._next_id()}"
            )
        if self.style == "query":
            return self._unique(
                f"{self.base_url}/download.php?file={self._next_id()}"
            )
        ext = _TARGET_EXTENSIONS.get(mime_type, ".bin")
        slug = self._slug(language)
        return self._unique(
            f"{self.base_url}{prefix}/{section_slug}/files/{slug}{ext}"
        )

    def error_url(self, language: str, section_slug: str) -> str:
        """A URL resembling valid ones but resolving to 4xx/5xx.

        The paper observes that error URLs are "often very similar" to
        accessible ones — which is why the classifier cannot separate
        them and folds "Neither" into the two live classes.
        """
        prefix = self._lang_prefix(language)
        if self.style == "query":
            return self._unique(f"{self.base_url}/index.php?id={self._next_id()}x")
        if self.style == "node":
            return self._unique(f"{self.base_url}{prefix}/node/{self._next_id()}")
        slug = self._slug(language)
        suffix = ".html" if self.style == "extension" else ""
        return self._unique(f"{self.base_url}{prefix}/{section_slug}/{slug}{suffix}")

    def media_url(self, section_slug: str) -> str:
        """A multimedia URL (blocklisted extension)."""
        ext = self._rng.choice([".png", ".jpg", ".mp4", ".gif", ".mp3"])
        return self._unique(
            f"{self.base_url}/media/{section_slug}/{self._next_id()}{ext}"
        )

    def offsite_url(self) -> str:
        """A URL outside the website boundary (must be filtered out)."""
        host = self._rng.choice(
            ["https://example.org", "https://partner-portal.net", "https://other.gov"]
        )
        return f"{host}/page/{self._next_id()}"


def section_slugs(language: str, count: int, rng: random.Random) -> list[str]:
    """Return ``count`` distinct section slugs for ``language``."""
    words = list(_SECTION_WORDS.get(language, _SECTION_WORDS["en"]))
    rng.shuffle(words)
    slugs = words[:count]
    index = 2
    while len(slugs) < count:
        slugs.append(f"{words[len(slugs) % len(words)]}-{index}")
        index += 1
    return slugs
