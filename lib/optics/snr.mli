(** Physical-layer SNR and FEC decodability model.

    §3.1 defines a degradation as a 3–10 dB transmission-loss rise that
    "observably affects the SNR in the physical layer, but the signal
    still supports ... error-free decoding", while a ≥10 dB rise (a cut)
    does not.  This module grounds those thresholds in the standard
    optical budget chain:

    - OSNR from the link budget: [OSNR ≈ 58 + P_tx − loss − NF] (dBm/dB,
      0.1 nm reference bandwidth, single amplified span);
    - Q factor from OSNR: [Q² (dB) = OSNR + 10·log10(2·B_ref / R_s)];
    - pre-FEC BER from Q: [BER = ½·erfc(Q/√2)];
    - decodable iff BER is below the SD-FEC limit (2e-2).

    With the transmit power set for a 10 dB margin over a fiber's healthy
    baseline loss ({!tx_power_for}), any degradation inside the paper's
    3–10 dB window still decodes and a ≥10 dB event does not — i.e. the
    OpTel-style telemetry thresholds used in {!Telemetry} fall out of the
    FEC limit rather than being assumed. *)

val osnr_db :
  tx_power_dbm:float -> loss_db:float -> ?noise_figure_db:float -> unit -> float
(** Single-span OSNR (dB, 0.1 nm RBW); noise figure defaults to 5 dB. *)

val q_squared_db : osnr_db:float -> ?symbol_rate_gbaud:float -> unit -> float
(** Q² in dB; symbol rate defaults to 32 GBaud (B_ref = 12.5 GHz). *)

val q_of_db : float -> float
(** Linear Q from Q² in dB. *)

val ber : q:float -> float
(** Pre-FEC bit-error rate ½·erfc(Q/√2). *)

val decodable : ?limit:float -> ber:float -> unit -> bool

val tx_power_for : baseline_loss_db:float -> ?margin_db:float -> unit -> float
(** Transmit power giving exactly [margin_db] (default 10 dB) of extra
    loss tolerance above the healthy baseline before the FEC limit. *)

val loss_margin_db : tx_power_dbm:float -> baseline_loss_db:float -> float
(** How many dB of additional loss the channel tolerates before failing
    FEC, under the given launch power. *)

val trace_decodable : tx_power_dbm:float -> Telemetry.trace -> bool array
(** Per-sample decodability of a telemetry trace. *)
