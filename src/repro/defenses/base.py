"""The composable defense-stack core: pure transforms over world config.

Section 6 recommends countermeasures; this module makes them *stackable
scenario citizens*.  A :class:`Defense` is a frozen, picklable spec with
one behaviour: ``apply(world_config) -> world_config``, a pure transform
over the :class:`WorldConfig` value that parameterises
:func:`repro.testbed.standard_testbed`.  Nothing is ever mutated — not
the incoming config, and not any resolver/nameserver/host config the
caller supplied.

A :class:`DefenseStack` composes defenses across layers (``ip`` /
``transport`` / ``dns`` / ``bgp`` / ``app``).  Two rules make stacks
well-behaved values:

* **ordering** — members are kept in canonical (layer, key) order, so
  stacks declared in any order compare, hash-key and pickle the same;
  composition is order-insensitive *by construction* because of
* **conflicts** — every defense declares the configuration knobs it
  ``writes``; two members writing the same knob (including two copies
  of the same defense with different tunables) raise
  :class:`DefenseError` at stack construction instead of silently
  last-wins overwriting each other.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, ClassVar, Iterable

from repro.core.errors import ConfigurationError
from repro.defenses.rov import RovDeployment
from repro.dns.nameserver import NameserverConfig
from repro.dns.resolver import ResolverConfig
from repro.netsim.host import HostConfig
from repro.testbed import default_resolver_config

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the cycle
    from repro.attacks.planner import TargetProfile

#: Stack composition order: a defense declares the layer it operates at
#: and stacks apply bottom-up (the same order the packets traverse).
LAYERS = ("ip", "transport", "dns", "bgp", "app")


class DefenseError(ConfigurationError):
    """A defense or defense stack is malformed (unknown name, layer
    outside :data:`LAYERS`, or two members writing the same knob)."""


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """The declarative inputs of ``standard_testbed``, as one value.

    ``None`` config fields mean "the testbed default"; the ``with_*``
    helpers materialise that default before rewriting a knob, so a
    defense can flip a switch without knowing whether the scenario
    overrode the config — and without mutating it if it did.
    """

    resolver_config: ResolverConfig | None = None
    ns_config: NameserverConfig | None = None
    ns_host_config: HostConfig | None = None
    resolver_host_config: HostConfig | None = None
    signed_target: bool = False
    rov: RovDeployment | None = None

    # -- pure single-knob rewrites ---------------------------------------------

    def with_resolver(self, **changes: Any) -> "WorldConfig":
        """A copy whose resolver config has ``changes`` applied."""
        base = self.resolver_config if self.resolver_config is not None \
            else default_resolver_config()
        return replace(self, resolver_config=replace(base, **changes))

    def with_ns(self, **changes: Any) -> "WorldConfig":
        """A copy whose nameserver config has ``changes`` applied."""
        base = self.ns_config if self.ns_config is not None \
            else NameserverConfig()
        return replace(self, ns_config=replace(base, **changes))

    def with_resolver_host(self, **changes: Any) -> "WorldConfig":
        """A copy whose resolver host config has ``changes`` applied."""
        base = self.resolver_host_config \
            if self.resolver_host_config is not None else HostConfig()
        return replace(self, resolver_host_config=replace(base, **changes))

    def with_ns_host(self, **changes: Any) -> "WorldConfig":
        """A copy whose nameserver host config has ``changes`` applied."""
        base = self.ns_host_config if self.ns_host_config is not None \
            else HostConfig()
        return replace(self, ns_host_config=replace(base, **changes))

    def testbed_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`repro.testbed.standard_testbed`.

        ``rov`` is not a testbed knob — the scenario build deploys it
        onto the world after construction (see
        ``AttackScenario.make_world``).
        """
        return {
            "resolver_config": self.resolver_config,
            "ns_config": self.ns_config,
            "ns_host_config": self.ns_host_config,
            "resolver_host_config": self.resolver_host_config,
            "signed_target": self.signed_target,
        }

    # Frozen+slots dataclasses only pickle out of the box from Python
    # 3.11; defended scenarios ship to campaign workers on 3.10 too.
    def __getstate__(self):
        return tuple(getattr(self, f.name)
                     for f in dataclasses.fields(self))

    def __setstate__(self, state):
        for f, value in zip(dataclasses.fields(self), state):
            object.__setattr__(self, f.name, value)


class Defense:
    """One deployable Section 6 countermeasure.

    Concrete defenses are frozen ``slots`` dataclasses: the *spec* —
    key, layer, the knobs it writes, which methodologies it is expected
    to defeat — lives on the class; instance fields hold only tunables
    (e.g. the PMTU clamp floor).  Subclasses implement :meth:`apply`
    as a pure transform and may override :meth:`profile_facts` to make
    the planner's Table 1 reasoning defense-aware.
    """

    __slots__ = ()

    key: ClassVar[str]
    aliases: ClassVar[tuple[str, ...]] = ()
    layer: ClassVar[str]
    paper_section: ClassVar[str]
    description: ClassVar[str]
    #: Methodologies this defense is expected to stop (the Section 6
    #: claim the ablation grid verifies).
    defeats: ClassVar[tuple[str, ...]] = ()
    #: Configuration knobs written by :meth:`apply`, as
    #: ``"section.field"`` strings — the stack's conflict rule.
    writes: ClassVar[tuple[str, ...]] = ()

    def apply(self, config: WorldConfig) -> WorldConfig:
        """Return a defended copy of ``config`` (never mutate it)."""
        raise NotImplementedError

    def profile_facts(self) -> dict[str, bool]:
        """Planner-fact overrides this defense imposes on a target.

        Keys are :class:`repro.attacks.planner.TargetProfile` field
        names; :meth:`DefenseStack.harden_profile` folds them in so the
        Table 1 verdicts account for the deployed stack.
        """
        return {}

    def describe(self) -> str:
        return f"[{self.layer}] {self.key}: {self.description} " \
               f"(§{self.paper_section}; defeats {', '.join(self.defeats)})"

    def __repr__(self) -> str:  # tunable-free defenses read as their key
        fields = dataclasses.fields(self) if dataclasses.is_dataclass(self) \
            else ()
        tunables = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                             for f in fields)
        return f"{type(self).__name__}({tunables})"

    # py3.10-safe pickling for frozen slots dataclass subclasses.
    def __getstate__(self):
        return tuple(getattr(self, f.name)
                     for f in dataclasses.fields(self))

    def __setstate__(self, state):
        for f, value in zip(dataclasses.fields(self), state):
            object.__setattr__(self, f.name, value)


def _canonical(defenses: Iterable[Defense]) -> tuple[Defense, ...]:
    """Validate a member list and return it in canonical stack order."""
    members = tuple(defenses)
    for defense in members:
        if not isinstance(defense, Defense):
            raise DefenseError(
                f"not a Defense: {defense!r} (resolve names through"
                " DefenseStack.of / resolve_defense)")
        if defense.layer not in LAYERS:
            raise DefenseError(
                f"{defense.key}: unknown layer {defense.layer!r};"
                f" declared layers are {LAYERS}")
    keys = [defense.key for defense in members]
    for key in keys:
        if keys.count(key) > 1:
            raise DefenseError(f"duplicate defense in stack: {key}")
    seen: dict[str, str] = {}
    for defense in members:
        for knob in defense.writes:
            owner = seen.get(knob)
            if owner is not None:
                raise DefenseError(
                    f"conflicting defenses: {owner} and {defense.key}"
                    f" both write {knob}")
            seen[knob] = defense.key
    return tuple(sorted(members,
                        key=lambda d: (LAYERS.index(d.layer), d.key)))


@dataclass(frozen=True, slots=True)
class DefenseStack:
    """An ordered, conflict-checked composition of defenses.

    Stacks are values: picklable, comparable, and order-insensitive —
    ``DefenseStack.of("dnssec", "rpki-rov")`` equals
    ``DefenseStack.of("rpki-rov", "dnssec")`` because members are kept
    in canonical (layer, key) order and the conflict rule guarantees no
    two members write the same knob, so composition commutes.
    """

    defenses: tuple[Defense, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "defenses", _canonical(self.defenses))

    @classmethod
    def of(cls, *defenses: "Defense | str") -> "DefenseStack":
        """Build a stack from defenses and/or registry names."""
        from repro.defenses.catalog import resolve_defense

        return cls(tuple(resolve_defense(d) for d in defenses))

    @classmethod
    def parse(cls, text: str) -> "DefenseStack":
        """Parse a ``"key+key+..."`` spelling (``"none"`` = empty)."""
        text = text.strip()
        if not text or text.lower() == "none":
            return cls()
        return cls.of(*(part for part in text.split("+") if part))

    # -- value surface ---------------------------------------------------------

    @property
    def key(self) -> str:
        """Canonical name: member keys joined by ``+`` (``"none"``)."""
        return "+".join(d.key for d in self.defenses) if self.defenses \
            else "none"

    @property
    def layers(self) -> tuple[str, ...]:
        """The distinct layers this stack touches, bottom-up."""
        return tuple(layer for layer in LAYERS
                     if any(d.layer == layer for d in self.defenses))

    @property
    def defeats(self) -> tuple[str, ...]:
        """Union of the members' expected-defeat claims."""
        combined: list[str] = []
        for defense in self.defenses:
            for method in defense.defeats:
                if method not in combined:
                    combined.append(method)
        return tuple(sorted(combined))

    def __len__(self) -> int:
        return len(self.defenses)

    def __iter__(self):
        return iter(self.defenses)

    def __bool__(self) -> bool:
        return bool(self.defenses)

    # -- behaviour -------------------------------------------------------------

    def apply(self, config: WorldConfig) -> WorldConfig:
        """Fold every member's transform over ``config`` (pure)."""
        for defense in self.defenses:
            config = defense.apply(config)
        return config

    def harden_profile(self, profile: "TargetProfile") -> "TargetProfile":
        """A copy of ``profile`` with every member's facts applied.

        This is what makes the planner defense-aware: the hardened
        profile answers Table 1's infrastructure questions as they hold
        *after* the stack is deployed.
        """
        facts: dict[str, bool] = {}
        for defense in self.defenses:
            facts.update(defense.profile_facts())
        return replace(profile, **facts) if facts else profile

    def describe(self) -> str:
        if not self.defenses:
            return "defense stack: none"
        lines = [f"defense stack: {self.key}"]
        lines.extend(f"  {d.describe()}" for d in self.defenses)
        return "\n".join(lines)

    def __getstate__(self):
        return (self.defenses,)

    def __setstate__(self, state):
        object.__setattr__(self, "defenses", state[0])
