"""OASIS Business Transaction Protocol on the framework (§4.5, figs 11–12).

BTP defines two transaction kinds:

- **atoms** — two-phase outcome without ACID implications: the *user*
  drives prepare explicitly and later confirms or cancels; participants
  implement prepare/confirm/cancel however they like (no locking
  mandated);
- **cohesions** — non-ACID grouping where the business logic selects a
  *confirm-set*: some participants confirm, the rest cancel.  Once the
  confirm-set is chosen the cohesion collapses to an atom.

Per the paper, an atom needs exactly two SignalSets:
:class:`BtpPrepareSignalSet` (fig. 11) and :class:`BtpCompleteSignalSet`
(fig. 12), with all participants registered with both.  A cohesion drives
per-member prepare/cancel selectively and then confirms its confirm-set
atomically.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.action import Action
from repro.core.activity import Activity
from repro.core.exceptions import ActionError
from repro.core.signal_set import SignalSet
from repro.core.signals import Outcome, Signal
from repro.core.status import CompletionStatus
from repro.exceptions import ReproError

PREPARE_SET = "btp.prepare"
COMPLETE_SET = "btp.complete"
SIGNAL_PREPARE = "prepare"
SIGNAL_CONFIRM = "confirm"
SIGNAL_CANCEL = "cancel"
OUTCOME_PREPARED = "prepared"
OUTCOME_CONFIRMED = "confirmed"
OUTCOME_CANCELLED = "cancelled"


class BtpError(ReproError):
    """Protocol misuse or participant failure in BTP."""


class BtpStatus(Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    CONFIRMED = "confirmed"
    CANCELLED = "cancelled"


class BtpPrepareSignalSet(SignalSet):
    """Broadcasts ``prepare``; collates prepared/cancelled votes (fig. 11)."""

    def __init__(self) -> None:
        self.signal_set_name = PREPARE_SET
        self._sent = False
        self.votes: List[str] = []

    def get_signal(self) -> Tuple[Optional[Signal], bool]:
        if self._sent:
            return None, True
        self._sent = True
        return Signal(SIGNAL_PREPARE, self.signal_set_name), True

    def set_response(self, response: Outcome) -> bool:
        if response.is_error:
            self.votes.append(OUTCOME_CANCELLED)
        else:
            self.votes.append(response.name)
        return False

    def get_outcome(self) -> Outcome:
        if all(vote == OUTCOME_PREPARED for vote in self.votes):
            return Outcome.of(OUTCOME_PREPARED, data=list(self.votes))
        return Outcome.error(name=OUTCOME_CANCELLED, data=list(self.votes))

    @property
    def all_prepared(self) -> bool:
        return all(vote == OUTCOME_PREPARED for vote in self.votes)


class BtpCompleteSignalSet(SignalSet):
    """Issues ``confirm`` or ``cancel`` per the completion status (fig. 12)."""

    def __init__(self) -> None:
        self.signal_set_name = COMPLETE_SET
        self._sent = False
        self.responses: List[Outcome] = []

    def get_signal(self) -> Tuple[Optional[Signal], bool]:
        if self._sent:
            return None, True
        self._sent = True
        confirm = self.get_completion_status() is CompletionStatus.SUCCESS
        return (
            Signal(
                SIGNAL_CONFIRM if confirm else SIGNAL_CANCEL,
                self.signal_set_name,
            ),
            True,
        )

    def set_response(self, response: Outcome) -> bool:
        self.responses.append(response)
        return False

    def get_outcome(self) -> Outcome:
        confirm = self.get_completion_status() is CompletionStatus.SUCCESS
        wanted = OUTCOME_CONFIRMED if confirm else OUTCOME_CANCELLED
        if any(r.is_error or r.name != wanted for r in self.responses):
            return Outcome.error(
                name="btp.mixed", data=[r.name for r in self.responses]
            )
        return Outcome.of(wanted, data=len(self.responses))


class BtpParticipant(Action):
    """One enrolled service: app-supplied prepare/confirm/cancel behaviour.

    ``on_prepare`` returns True to vote prepared, False to cancel.  BTP
    participants decide their own isolation/consistency strategy — the
    callbacks are free to do anything (reserve stock, take payment…).
    """

    def __init__(
        self,
        name: str,
        on_prepare: Optional[Callable[[], bool]] = None,
        on_confirm: Optional[Callable[[], None]] = None,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        self.name = name
        self._on_prepare = on_prepare
        self._on_confirm = on_confirm
        self._on_cancel = on_cancel
        self.status = BtpStatus.ACTIVE
        self.signals_seen: List[str] = []

    def process_signal(self, signal: Signal) -> Outcome:
        self.signals_seen.append(signal.signal_name)
        if signal.signal_name == SIGNAL_PREPARE:
            if self.status is BtpStatus.PREPARED:
                return Outcome.of(OUTCOME_PREPARED)  # idempotent redelivery
            ok = self._on_prepare() if self._on_prepare else True
            if ok:
                self.status = BtpStatus.PREPARED
                return Outcome.of(OUTCOME_PREPARED)
            self.status = BtpStatus.CANCELLED
            return Outcome.of(OUTCOME_CANCELLED)
        if signal.signal_name == SIGNAL_CONFIRM:
            if self.status is BtpStatus.PREPARED:
                if self._on_confirm:
                    self._on_confirm()
                self.status = BtpStatus.CONFIRMED
            if self.status is not BtpStatus.CONFIRMED:
                return Outcome.error(data=f"{self.name} cannot confirm from {self.status}")
            return Outcome.of(OUTCOME_CONFIRMED)
        if signal.signal_name == SIGNAL_CANCEL:
            if self.status in (BtpStatus.ACTIVE, BtpStatus.PREPARED):
                if self._on_cancel:
                    self._on_cancel()
                self.status = BtpStatus.CANCELLED
            return Outcome.of(OUTCOME_CANCELLED)
        raise ActionError(f"unknown BTP signal {signal.signal_name}")


class BtpAtom:
    """A BTP atom: explicit user-driven prepare then confirm/cancel.

    ``executor`` (optional) routes this atom's prepare/confirm/cancel
    broadcasts through a specific
    :class:`~repro.core.broadcast.SerialBroadcastExecutor` instead of the
    manager-wide default, mirroring ``Saga(executor=...)`` — a
    thread-pool executor overlaps participant replies while keeping the
    fig. 11/12 logical traces identical to the serial sweep.
    """

    def __init__(
        self, manager: Any, name: str = "atom", executor: Optional[Any] = None
    ) -> None:
        self.manager = manager
        self.name = name
        self.executor = executor
        self.activity: Activity = manager.begin(
            name=f"btp:{name}", executor=executor
        )
        self.participants: List[BtpParticipant] = []
        self.status = BtpStatus.ACTIVE
        self._prepare_set = BtpPrepareSignalSet()
        self._complete_set = BtpCompleteSignalSet()
        self.activity.register_signal_set(self._prepare_set)
        self.activity.register_signal_set(self._complete_set, completion=True)

    def enroll(self, participant: BtpParticipant) -> None:
        if self.status is not BtpStatus.ACTIVE:
            raise BtpError(f"cannot enroll in atom {self.name} ({self.status.value})")
        self.participants.append(participant)
        self.activity.add_action(PREPARE_SET, participant)
        self.activity.add_action(COMPLETE_SET, participant)

    def prepare(self) -> bool:
        """Drive phase one explicitly; True if every participant prepared."""
        if self.status is not BtpStatus.ACTIVE:
            raise BtpError(f"atom {self.name} cannot prepare ({self.status.value})")
        outcome = self.activity.signal(PREPARE_SET)
        if outcome.is_error:
            self.status = BtpStatus.CANCELLED
            # Anyone already prepared must be told to cancel.
            self.activity.complete(CompletionStatus.FAIL)
            return False
        self.status = BtpStatus.PREPARED
        return True

    def confirm(self) -> None:
        """Phase two, confirm direction (requires successful prepare)."""
        if self.status is not BtpStatus.PREPARED:
            raise BtpError(f"atom {self.name} cannot confirm ({self.status.value})")
        outcome = self.activity.complete(CompletionStatus.SUCCESS)
        if outcome.is_error:
            raise BtpError(f"atom {self.name} confirmation was mixed: {outcome.data}")
        self.status = BtpStatus.CONFIRMED

    def cancel(self) -> None:
        if self.status in (BtpStatus.CONFIRMED, BtpStatus.CANCELLED):
            raise BtpError(f"atom {self.name} cannot cancel ({self.status.value})")
        self.activity.complete(CompletionStatus.FAIL)
        self.status = BtpStatus.CANCELLED

    # -- participant facade (atoms enroll in cohesions) -------------------------

    def as_participant(self) -> BtpParticipant:
        """Expose this atom as a participant of an enclosing cohesion."""
        return BtpParticipant(
            name=f"atom:{self.name}",
            on_prepare=self.prepare,
            on_confirm=self.confirm,
            on_cancel=self._cancel_if_possible,
        )

    def _cancel_if_possible(self) -> None:
        if self.status in (BtpStatus.ACTIVE, BtpStatus.PREPARED):
            self.cancel()


class BtpCohesion:
    """A BTP cohesion: business-rule selection of the confirm-set.

    Members (atoms) are enrolled; the application may cancel members as
    conditions dictate; ``confirm(confirm_set)`` prepares the chosen
    members and, if all prepare, confirms them atomically and cancels the
    rest — "the cohesion collapses down to being an atom".
    """

    def __init__(
        self, manager: Any, name: str = "cohesion", executor: Optional[Any] = None
    ) -> None:
        self.manager = manager
        self.name = name
        # Default broadcast executor for atoms spawned via new_atom().
        self.executor = executor
        self.members: Dict[str, BtpAtom] = {}
        self.status = BtpStatus.ACTIVE
        self.outcomes: Dict[str, BtpStatus] = {}

    def new_atom(self, name: str) -> BtpAtom:
        """Create and enroll a member atom sharing this cohesion's executor."""
        atom = BtpAtom(self.manager, name=name, executor=self.executor)
        self.enroll(atom)
        return atom

    def enroll(self, atom: BtpAtom) -> None:
        if self.status is not BtpStatus.ACTIVE:
            raise BtpError(f"cohesion {self.name} is {self.status.value}")
        if atom.name in self.members:
            raise BtpError(f"member {atom.name!r} already enrolled")
        self.members[atom.name] = atom

    def cancel_member(self, atom_name: str) -> None:
        atom = self._member(atom_name)
        if atom.status in (BtpStatus.ACTIVE, BtpStatus.PREPARED):
            atom.cancel()
        self.outcomes[atom_name] = BtpStatus.CANCELLED

    def prepare_member(self, atom_name: str) -> bool:
        atom = self._member(atom_name)
        if atom.status is BtpStatus.PREPARED:
            return True
        return atom.prepare()

    def confirm(self, confirm_set: Sequence[str]) -> Dict[str, BtpStatus]:
        """Confirm exactly ``confirm_set``; cancel every other member."""
        if self.status is not BtpStatus.ACTIVE:
            raise BtpError(f"cohesion {self.name} is {self.status.value}")
        unknown = [name for name in confirm_set if name not in self.members]
        if unknown:
            raise BtpError(f"confirm-set references unknown members {unknown}")
        # Collapse to an atom over the confirm-set: prepare all members…
        chosen = [self.members[name] for name in confirm_set]
        all_prepared = True
        for atom in chosen:
            if atom.status is not BtpStatus.PREPARED:
                if not atom.prepare():
                    all_prepared = False
                    break
        if not all_prepared:
            # Atomicity across the confirm-set: everyone cancels.
            for name in self.members:
                if self.members[name].status in (BtpStatus.ACTIVE, BtpStatus.PREPARED):
                    self.members[name].cancel()
                self.outcomes[name] = BtpStatus.CANCELLED
            self.status = BtpStatus.CANCELLED
            return dict(self.outcomes)
        # …then confirm the set and cancel the rest.
        for atom in chosen:
            atom.confirm()
            self.outcomes[atom.name] = BtpStatus.CONFIRMED
        for name, atom in self.members.items():
            if name not in confirm_set:
                if atom.status in (BtpStatus.ACTIVE, BtpStatus.PREPARED):
                    atom.cancel()
                self.outcomes[name] = BtpStatus.CANCELLED
        self.status = BtpStatus.CONFIRMED
        return dict(self.outcomes)

    def cancel(self) -> None:
        for name in list(self.members):
            self.cancel_member(name)
        self.status = BtpStatus.CANCELLED

    def _member(self, atom_name: str) -> BtpAtom:
        try:
            return self.members[atom_name]
        except KeyError:
            raise BtpError(f"no member {atom_name!r} in cohesion {self.name}") from None
