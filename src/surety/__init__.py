"""Deterministic settlement state machine and market simulator for
assured delegated jobs: structured agreements, escrowed fees, priced and
collateralized principal release behind a multi-signature predicate, and
a Monte Carlo harness measuring what those mechanics do to a market."""

from .actions import Action, ActionKind
from .agreement import (
    AssuranceMode,
    CollateralPolicy,
    Deadlines,
    FeeTerms,
    Keyring,
    PartyRef,
    PremiumRefundPolicy,
    PrincipalTerms,
    Role,
    StructuredAgreement,
    canonical_bytes,
    canonical_hash,
    sign_binding,
    verify_binding,
)
from .engine import EpisodeEconomics, EpisodePlan, check_episode, ledger_economics
from .errors import (
    BadBinding,
    DeadlineExceeded,
    DegenerateBaseline,
    EngineInconsistency,
    InsufficientFunds,
    InvalidAgreement,
    LedgerError,
    NotEnabled,
    PolicyViolation,
    SuretyError,
    TransitionError,
    UnknownAccount,
    WrongSender,
)
from .ledger import (
    InstructionKind,
    Ledger,
    LedgerInstruction,
    Receipt,
    replay_receipts,
    settle_claim,
)
from .lifecycle import (
    ApplyResult,
    FeeState,
    JobState,
    Phase,
    PrincipalState,
    SettlementMachine,
    enabled_actions,
    new_job,
    release_auth,
    release_ready,
    replay,
    sigma_roles,
)
from .market_sim import (
    CellInvariants,
    CellMetrics,
    CellParams,
    CellPlan,
    EpisodeDraws,
    SweepConfig,
    SweepResult,
    UserPolicy,
    draw_episodes,
    merchant_posts,
    prepare_cell,
    render_csv,
    run_cell,
    run_sweep,
    user_estimate,
)
from .underwriting import (
    CollateralSchedule,
    PricingPolicy,
    RiskChannel,
    estimate_risk,
    price,
)

__version__ = "0.1.0"
