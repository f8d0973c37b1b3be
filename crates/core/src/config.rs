//! One validated configuration for building streaming engines.
//!
//! Engine construction used to be positional: every call site built a
//! `DistanceConstraints`, a `TupleDistance`, a `SaverConfig`, and an
//! engine in sequence, and the CLI kept its own ad-hoc byte codec for
//! the knobs a durable store must remember. [`EngineConfig`] gathers
//! the knob set — arity, ε, η, κ, shard count — behind named builder
//! setters, validates once in [`EngineConfig::validate`], and owns the
//! durable byte encoding ([`EngineConfig::encode`]/[`EngineConfig::decode`])
//! that stores stamp into their snapshot header so `disc recover` needs
//! no flags.
//!
//! Worker count and execution budget are properties of the host running
//! the engine, not of the store: the saver it builds takes the
//! [`SaverConfig`] defaults for both (one worker per core, the
//! process-wide budget), so reopening a store on a smaller machine never
//! inherits the bigger machine's parallelism.

use disc_data::{binary, Schema};
use disc_distance::Norm;

use crate::constraints::DistanceConstraints;
use crate::engine::ShardedEngine;
use crate::error::Error;
use crate::saver::{Saver, SaverConfig};
use crate::shard;

/// Version byte leading every encoded blob. Version 1 was the CLI's
/// unversioned ε/η/κ triple; version 2 added the leading version byte,
/// the arity, and the shard count.
const CONFIG_VERSION: u8 = 2;

/// The full engine knob set; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    arity: usize,
    eps: f64,
    eta: usize,
    kappa: usize,
    shards: usize,
}

impl EngineConfig {
    /// A configuration over `arity` numeric attributes with constraints
    /// `(eps, eta)`, κ = 2 and the [`shard::default_shards`] shard count.
    pub fn new(arity: usize, eps: f64, eta: usize) -> Self {
        EngineConfig {
            arity,
            eps,
            eta,
            kappa: 2,
            shards: shard::default_shards(),
        }
    }

    /// Restricts adjustments to at most `kappa` attributes.
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.kappa = kappa;
        self
    }

    /// Partitions rows across `shards` shards; `0` means auto (resolved
    /// to one shard per core, capped, by [`shard::resolve_shards`]).
    /// Results are bit-identical for every count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The schema arity this configuration expects.
    pub fn arity_value(&self) -> usize {
        self.arity
    }

    /// The distance constraints `(ε, η)`.
    pub fn constraints(&self) -> DistanceConstraints {
        DistanceConstraints::new(self.eps, self.eta)
    }

    /// The κ attribute-adjustment cap.
    pub fn kappa_value(&self) -> usize {
        self.kappa
    }

    /// The configured shard count, as requested (`0` = auto).
    pub fn shards_value(&self) -> usize {
        self.shards
    }

    /// The shard count an engine built from this configuration will
    /// actually use (auto resolved against the host).
    pub fn resolved_shards(&self) -> usize {
        shard::resolve_shards(self.shards)
    }

    /// Checks every knob once; builders call this, so an invalid
    /// configuration can never produce an engine.
    ///
    /// # Errors
    /// [`Error::Config`] naming the offending parameter: a zero arity, a
    /// non-finite or non-positive ε, a zero η, or a zero κ. A zero shard
    /// count is *valid* (it means auto).
    pub fn validate(&self) -> Result<(), Error> {
        if self.arity < 1 {
            return Err(Error::Config {
                param: "arity",
                message: "must be at least 1 (got 0)".into(),
            });
        }
        if !self.eps.is_finite() || self.eps <= 0.0 {
            return Err(Error::Config {
                param: "eps",
                message: format!("must be a positive finite number (got {})", self.eps),
            });
        }
        if self.eta < 1 {
            return Err(Error::Config {
                param: "eta",
                message: "must be at least 1 (got 0)".into(),
            });
        }
        if self.kappa < 1 {
            return Err(Error::Config {
                param: "kappa",
                message: "must be at least 1 (got 0)".into(),
            });
        }
        Ok(())
    }

    /// Builds the approximate saver for `schema` (which must match the
    /// configured arity).
    ///
    /// # Errors
    /// [`Error::Config`] from [`EngineConfig::validate`], or an arity
    /// mismatch between the configuration and `schema`.
    pub fn build_saver_for(&self, schema: &Schema) -> Result<Box<dyn Saver>, Error> {
        self.validate()?;
        if schema.arity() != self.arity {
            return Err(Error::Config {
                param: "arity",
                message: format!(
                    "configuration expects arity {}, schema has {}",
                    self.arity,
                    schema.arity()
                ),
            });
        }
        let saver = SaverConfig::new(self.constraints(), schema.tuple_distance(Norm::L2))
            .kappa(self.kappa)
            .build_approx()?;
        Ok(Box::new(saver))
    }

    /// Builds a sharded streaming engine over `schema`.
    ///
    /// # Errors
    /// Same contract as [`EngineConfig::build_saver_for`].
    pub fn build_engine(&self, schema: Schema) -> Result<ShardedEngine, Error> {
        let saver = self.build_saver_for(&schema)?;
        Ok(ShardedEngine::with_shards(
            schema,
            saver,
            self.resolved_shards(),
        ))
    }

    /// Serializes the knobs (version, arity, ε, η, κ, shards) for a
    /// durable store's config blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(CONFIG_VERSION);
        binary::put_u64(&mut out, self.arity as u64);
        binary::put_f64(&mut out, self.eps);
        binary::put_u64(&mut out, self.eta as u64);
        binary::put_u64(&mut out, self.kappa as u64);
        binary::put_u64(&mut out, self.shards as u64);
        out
    }

    /// Deserializes an [`EngineConfig::encode`] blob.
    ///
    /// # Errors
    /// [`Error::Config`] for an unknown version byte, a truncated blob,
    /// trailing bytes, or knob values that fail [`EngineConfig::validate`].
    pub fn decode(blob: &[u8]) -> Result<EngineConfig, Error> {
        let bad = |message: String| {
            Err(Error::Config {
                param: "engine-config",
                message,
            })
        };
        let mut r = binary::Reader::new(blob);
        let version = match r.u8("config version") {
            Ok(v) => v,
            Err(e) => return bad(e.to_string()),
        };
        if version != CONFIG_VERSION {
            return bad(format!(
                "unsupported config version {version} (this build reads {CONFIG_VERSION})"
            ));
        }
        let mut u64_field = |what: &'static str| -> Result<u64, Error> {
            r.u64(what).map_err(|e| Error::Config {
                param: "engine-config",
                message: e.to_string(),
            })
        };
        let arity = u64_field("config arity")? as usize;
        let eps_bits = u64_field("config eps")?;
        let eta = u64_field("config eta")? as usize;
        let kappa = u64_field("config kappa")? as usize;
        let shards = u64_field("config shards")? as usize;
        if !r.is_exhausted() {
            return bad(format!("{} trailing config bytes", r.remaining()));
        }
        let config = EngineConfig::new(arity, f64::from_bits(eps_bits), eta)
            .kappa(kappa)
            .shards(shards);
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let config = EngineConfig::new(3, 0.5, 4);
        assert_eq!(config.arity_value(), 3);
        assert_eq!(config.constraints(), DistanceConstraints::new(0.5, 4));
        assert_eq!(config.kappa_value(), 2);
        let config = config.kappa(1).shards(5);
        assert_eq!(config.kappa_value(), 1);
        assert_eq!(config.shards_value(), 5);
        assert_eq!(config.resolved_shards(), 5);
        assert!(EngineConfig::new(2, 0.5, 4).shards(0).resolved_shards() >= 1);
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let param = |config: EngineConfig| match config.validate().unwrap_err() {
            Error::Config { param, .. } => param,
            other => panic!("unexpected error {other}"),
        };
        assert_eq!(param(EngineConfig::new(0, 0.5, 4)), "arity");
        assert_eq!(param(EngineConfig::new(2, 0.0, 4)), "eps");
        assert_eq!(param(EngineConfig::new(2, f64::NAN, 4)), "eps");
        assert_eq!(param(EngineConfig::new(2, 0.5, 0)), "eta");
        assert_eq!(param(EngineConfig::new(2, 0.5, 4).kappa(0)), "kappa");
        assert!(EngineConfig::new(2, 0.5, 4).shards(0).validate().is_ok());
    }

    #[test]
    fn encode_decode_round_trips() {
        let config = EngineConfig::new(4, 0.25, 7).kappa(3).shards(6);
        let blob = config.encode();
        let back = EngineConfig::decode(&blob).unwrap();
        assert_eq!(back.arity_value(), 4);
        assert_eq!(back.constraints(), DistanceConstraints::new(0.25, 7));
        assert_eq!(back.kappa_value(), 3);
        assert_eq!(back.shards_value(), 6);
        assert_eq!(back.encode(), blob, "decode ∘ encode = id");
    }

    #[test]
    fn decode_rejects_malformed_blobs() {
        let config = EngineConfig::new(2, 0.5, 4);
        let good = config.encode();

        let err = EngineConfig::decode(&good[..good.len() - 1]).unwrap_err();
        assert!(matches!(err, Error::Config { .. }), "{err}");

        let mut trailing = good.clone();
        trailing.push(0);
        let err = EngineConfig::decode(&trailing).unwrap_err();
        assert!(matches!(err, Error::Config { .. }), "{err}");

        let mut wrong_version = good.clone();
        wrong_version[0] = 9;
        let err = EngineConfig::decode(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // The legacy unversioned ε/η/κ triple must be refused loudly,
        // not misparsed.
        let mut legacy = Vec::new();
        binary::put_f64(&mut legacy, 0.5);
        binary::put_u64(&mut legacy, 4);
        binary::put_u64(&mut legacy, 2);
        assert!(EngineConfig::decode(&legacy).is_err());
    }

    #[test]
    fn build_engine_checks_schema_arity() {
        let config = EngineConfig::new(2, 0.5, 4).shards(3);
        let engine = config.build_engine(Schema::numeric(2)).unwrap();
        assert_eq!(engine.shards(), 3);
        let err = config
            .build_saver_for(&Schema::numeric(5))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { param: "arity", .. }), "{err}");
    }
}
