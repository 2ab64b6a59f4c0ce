"""SAS-authenticated Diffie-Hellman pairing and its attack simulator."""

from .commitment import Commitment, Decommitment, commit, open_commitment
from .errors import PairingError
from .group import (
    DhParams,
    PARAM_SETS,
    PrivateShare,
    PublicShare,
    SessionKey,
    derive_key,
    gen_private_share,
    load_params_file,
    mod_exp,
    pub_share,
    validate_params,
)
from .protocol import (
    AuthNonce,
    Identity,
    Msg1,
    Msg2,
    Msg3,
    PairingPayload,
    Peer,
    Phase,
    Role,
    Sas,
    compute_sas,
    decode_message,
    encode_message,
    format_sas,
    gen_auth_nonce,
    key_fingerprint,
)
from .adversary import (
    AttackOutcome,
    AttackStrategy,
    GuessRule,
    StrategyKind,
    estimate_attack_success,
    exhaustive_attack_success,
    run_honest_session,
    run_mitm_trial,
)
from .transport import (
    StreamChannel,
    StreamListener,
    connect_stream,
)

__version__ = "0.1.0"
