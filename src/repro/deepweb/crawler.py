"""SB-CLASSIFIER with GET-form enumeration."""

from __future__ import annotations

from repro.core.crawler import SBConfig, SBCrawler

#: Synthetic tag path under which form submissions are grouped: one
#: bandit action per form-bearing layout, learned like any link group.
_FORM_TAG_PATH = "html body div#main form.deep-search select option"


class DeepWebSBCrawler(SBCrawler):
    """SB crawler that also enumerates GET search forms.

    ``max_submissions_per_form`` bounds the enumeration — real form
    spaces can be huge; the cap keeps the crawl budget-safe, and the
    sleeping bandit stops drawing from the form action as soon as its
    observed reward lags behind navigation actions.
    """

    def __init__(
        self,
        config: SBConfig | None = None,
        max_submissions_per_form: int = 64,
        name: str | None = None,
    ) -> None:
        super().__init__(config, name=name or "SB-DEEPWEB")
        self.max_submissions_per_form = max_submissions_per_form

    def _process_forms(self, kernel, parsed) -> None:
        for form in getattr(parsed, "forms", []):
            submissions = form.submission_urls()[: self.max_submissions_per_form]
            for url in submissions:
                if url in kernel.seen or not kernel.admit(url):
                    continue
                kernel.seen[url] = None
                # Submissions resolve to result *pages*: queue as HTML
                # under the form's own action group.
                action_id = self._actions.assign(_FORM_TAG_PATH)
                self._bandit.ensure_arm(action_id)
                self._frontier.add(url, action_id)


def deep_web_sb_classifier(
    config: SBConfig | None = None,
    max_submissions_per_form: int = 64,
) -> DeepWebSBCrawler:
    """Factory mirroring :func:`repro.core.crawler.sb_classifier`."""
    return DeepWebSBCrawler(
        config or SBConfig(), max_submissions_per_form=max_submissions_per_form
    )
