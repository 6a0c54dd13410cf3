"""Registry of the models shipped with the package."""

from __future__ import annotations

from importlib import resources
from typing import Optional

from .dsl import ParseResult, parse_model
from .model import Record, StdModel
from .properties import PropertyExpr, parse_properties


class BundledModel(Record):
    __slots__ = ("name", "model_file", "props_file", "fragment_var")
    _defaults = {"fragment_var": None}
    name: str
    model_file: str
    props_file: str
    fragment_var: Optional[str]  # model variable holding a loadable migration

    def model_text(self) -> str:
        return resources.files("phasecoord.models").joinpath(self.model_file).read_text("utf-8")

    def props_text(self) -> str:
        return resources.files("phasecoord.models").joinpath(self.props_file).read_text("utf-8")

    def parse(self) -> ParseResult:
        return parse_model(self.model_text())

    def model(self) -> StdModel:
        result = self.parse()
        if not result.ok:
            raise ValueError(f"bundled model {self.name} invalid: {result.diagnostics}")
        return result.model

    def properties(self) -> list[PropertyExpr]:
        props, diags = parse_properties(self.props_text())
        if diags:
            raise ValueError(f"bundled properties {self.name} invalid: {diags}")
        return props


BUNDLED = {
    "cs-nondet": BundledModel("cs-nondet", "cs_nondet.pdm", "cs_nondet.pprop"),
    "cs-roundrobin": BundledModel("cs-roundrobin", "cs_roundrobin.pdm", "cs_roundrobin.pprop"),
    "prodcons": BundledModel("prodcons", "prodcons.pdm", "prodcons.pprop"),
    "shop-migration": BundledModel(
        "shop-migration", "shop_migration.pdm", "shop_migration.pprop", fragment_var="ShopMigr"
    ),
}


def bundled_names() -> list[str]:
    return sorted(BUNDLED)


def get_bundled(name: str) -> BundledModel:
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled model {name!r}; choose from {', '.join(bundled_names())}")
    return BUNDLED[name]
