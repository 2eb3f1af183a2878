//! The reply oracle. Before the clock starts, every request line's
//! expected prediction is computed in-process from the same SavedModel
//! and dataset files the program loads (`predict_into` followed by
//! `apply_prediction`); afterwards every reply is checked against it,
//! bit for bit.

use std::collections::HashMap;

use m2g4rtp::{M2G4Rtp, SavedModel};
use rtp_cli::serve::ServeResponse;
use rtp_eval::service::apply_prediction;
use rtp_sim::{Dataset, RtpQuery};
use rtp_tensor::{Numerics, Tape};
use serde::Deserialize;

/// Model version of a server that was never hot-swapped.
pub const FIRST_MODEL_VERSION: u64 = 1;

/// What a correct reply to one line contains.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Order indices in predicted service sequence.
    pub sorted_orders: Vec<usize>,
    /// Predicted AOI visit sequence.
    pub aoi_sequence: Vec<usize>,
    /// Bit patterns of the per-order ETAs, minutes.
    pub eta_bits: Vec<u32>,
}

/// The expected replies of a set of request lines.
pub struct Oracle {
    expected: HashMap<String, Expected>,
}

impl Oracle {
    /// Computes the expected reply of every distinct line in `lines`
    /// from the model and dataset JSON exactly as the program receives
    /// them.
    pub fn new<'a>(
        model_json: &str,
        dataset_json: &str,
        lines: impl IntoIterator<Item = &'a String>,
    ) -> Result<Oracle, String> {
        let dataset = Dataset::from_json(dataset_json).map_err(|e| format!("dataset: {e}"))?;
        let saved: SavedModel =
            serde_json::from_str(model_json).map_err(|e| format!("model: {e}"))?;
        let model = M2G4Rtp::from_saved(saved);
        let mut tape = model.inference_tape(Numerics::Exact);
        let mut expected = HashMap::new();
        for line in lines {
            if !expected.contains_key(line) {
                let e = expected_reply(&model, &dataset, &mut tape, line)?;
                expected.insert(line.clone(), e);
            }
        }
        Ok(Oracle { expected })
    }

    /// Checks the reply the program gave to `line`.
    pub fn check(&self, line: &str, reply: &str) -> Result<(), String> {
        let expected = self.expected.get(line).ok_or("line has no expected reply")?;
        check_reply(expected, reply)
    }
}

/// The expected reply to one request line.
pub fn expected_reply(
    model: &M2G4Rtp,
    dataset: &Dataset,
    tape: &mut Tape,
    line: &str,
) -> Result<Expected, String> {
    let value: serde::Value = serde_json::from_str(line).map_err(|e| format!("line: {e}"))?;
    let query = RtpQuery::from_value(&value).map_err(|e| format!("query: {e}"))?;
    let courier = dataset.couriers.get(query.courier_id).ok_or("unknown courier")?;
    let graph = model.build_graph(&dataset.city, courier, &query);
    let prediction = model.predict_into(tape, &graph);
    let app = apply_prediction(&query, &prediction)?;
    Ok(Expected {
        eta_bits: app.etas.iter().map(|e| e.eta_minutes.to_bits()).collect(),
        sorted_orders: app.sorted_orders,
        aoi_sequence: app.aoi_sequence,
    })
}

/// Checks one reply line: a prediction from the first model version
/// whose order sequence, AOI sequence and ETA bits all equal the
/// expected ones, with a finite non-negative latency field.
pub fn check_reply(expected: &Expected, reply: &str) -> Result<(), String> {
    let r: ServeResponse = serde_json::from_str(reply).map_err(|e| format!("reply: {e}"))?;
    if r.model_version != FIRST_MODEL_VERSION {
        return Err(format!("model_version {} (want {FIRST_MODEL_VERSION})", r.model_version));
    }
    if !(r.latency_ms.is_finite() && r.latency_ms >= 0.0) {
        return Err(format!("latency_ms {}", r.latency_ms));
    }
    if r.sorted_orders != expected.sorted_orders {
        return Err(format!("sorted_orders {:?} != {:?}", r.sorted_orders, expected.sorted_orders));
    }
    if r.aoi_sequence != expected.aoi_sequence {
        return Err(format!("aoi_sequence {:?} != {:?}", r.aoi_sequence, expected.aoi_sequence));
    }
    let bits: Vec<u32> = r.eta_minutes.iter().map(|e| e.to_bits()).collect();
    if bits != expected.eta_bits {
        return Err(format!("eta_minutes {:?} differ in their bits", r.eta_minutes));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reply laid out byte for byte as the server writes it.
    const REPLY: &str = "{\"latency_ms\":0.512,\"model_version\":1,\"sorted_orders\":[2,0,1],\
                         \"aoi_sequence\":[1,0],\"eta_minutes\":[3.5,10.25,7.125]}";

    fn expected() -> Expected {
        Expected {
            sorted_orders: vec![2, 0, 1],
            aoi_sequence: vec![1, 0],
            eta_bits: [3.5f32, 10.25, 7.125].iter().map(|e| e.to_bits()).collect(),
        }
    }

    #[test]
    fn accepts_the_exact_reply() {
        assert_eq!(check_reply(&expected(), REPLY), Ok(()));
    }

    #[test]
    fn rejects_a_reply_with_any_one_flipped_byte() {
        // Every byte but the latency value is covered by the oracle.
        let latency = REPLY.find("0.512").expect("latency value")..REPLY.find(",\"model").unwrap();
        for i in (0..REPLY.len()).filter(|i| !latency.contains(i)) {
            let mut bytes = REPLY.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let flipped = String::from_utf8(bytes).expect("ASCII stays ASCII");
            assert!(
                check_reply(&expected(), &flipped).is_err(),
                "flipping byte {i} ({:?}) went unnoticed: {flipped}",
                REPLY.as_bytes()[i] as char
            );
        }
    }

    #[test]
    fn rejects_other_model_versions_errors_and_bad_latency() {
        let swapped = REPLY.replace("\"model_version\":1", "\"model_version\":2");
        assert!(check_reply(&expected(), &swapped).is_err());
        assert!(check_reply(&expected(), "{\"error\":\"bad request\"}").is_err());
        let negative = REPLY.replace("0.512", "-0.5");
        assert!(check_reply(&expected(), &negative).is_err());
    }

    #[test]
    fn server_reply_matches_the_in_process_prediction() {
        // End to end on a fresh model (pipeline attached, no training):
        // the reply built from the expected values passes, and an ETA
        // off by one ulp does not.
        let ds = crate::inputs::dataset(3);
        let model_json = crate::inputs::fixture_model_json(&ds, 3, 0);
        let line = crate::inputs::lines(&ds.test[..1]).remove(0);
        let oracle = Oracle::new(&model_json, &ds.to_json().expect("dataset JSON"), [&line])
            .expect("oracle");
        let e = oracle.expected[&line].clone();
        let etas: Vec<f32> = e.eta_bits.iter().map(|&b| f32::from_bits(b)).collect();
        let reply = |etas: &[f32]| {
            let body = ServeResponse {
                sorted_orders: e.sorted_orders.clone(),
                aoi_sequence: e.aoi_sequence.clone(),
                eta_minutes: etas.to_vec(),
                latency_ms: 0.25,
                model_version: 1,
            };
            serde_json::to_string(&body).expect("reply JSON")
        };
        assert_eq!(oracle.check(&line, &reply(&etas)), Ok(()));
        let mut off = etas.clone();
        off[0] = f32::from_bits(off[0].to_bits() + 1);
        assert!(oracle.check(&line, &reply(&off)).is_err());
    }
}
