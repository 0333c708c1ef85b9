#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "crypto/cosi.hpp"
#include "ledger/chain_validation.hpp"
#include "ledger/round_log.hpp"
#include "merkle/merkle_tree.hpp"
#include "net/frame.hpp"
#include "trace.hpp"
#include "txn/occ.hpp"

namespace perfbench {
namespace {

using namespace fides;

/// Repeats `pass` (which handles `items` inputs) until at least `min_s`
/// seconds have gone by, and returns seconds per input.
template <typename Fn>
double seconds_per_item(std::size_t items, double min_s, Fn&& pass) {
  if (items == 0) return 0;
  std::size_t done = 0;
  const auto t0 = Clock::now();
  do {
    pass();
    done += items;
  } while (seconds_since(t0) < min_s);
  return seconds_since(t0) / static_cast<double>(done);
}

constexpr double kMinProbeSeconds = 0.05;
constexpr std::size_t kSignatures = 32;

}  // namespace

void run_layer_probes(Cluster& cluster, const std::vector<ledger::Block>& blocks,
                      const std::string& tmp_dir, std::map<std::string, double>& layer,
                      std::vector<std::string>& failures) {
  if (blocks.empty()) {
    failures.push_back("layer probes: the run produced no ledger");
    return;
  }
  std::vector<Bytes> block_bytes;
  std::vector<const txn::Transaction*> txns;
  std::size_t total_bytes = 0;
  for (const ledger::Block& b : blocks) {
    block_bytes.push_back(b.serialize());
    total_bytes += block_bytes.back().size();
    for (const txn::Transaction& t : b.txns) txns.push_back(&t);
  }

  // --- crypto: Schnorr over the blocks' digests --------------------------------
  // Digests, not whole blocks, so the probe times the curve arithmetic and
  // not SHA-256 over a large message (sha256_mb_s below covers hashing).
  const crypto::KeyPair key = crypto::KeyPair::deterministic(0x5eed);
  std::vector<Bytes> messages;
  for (std::size_t i = 0; i < kSignatures; ++i) {
    messages.push_back(blocks[i % blocks.size()].digest().to_bytes());
  }
  std::vector<crypto::Signature> sigs(messages.size());
  layer["crypto.sign_us"] = 1e6 * seconds_per_item(messages.size(), kMinProbeSeconds, [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) sigs[i] = key.sign(messages[i]);
  });
  bool all_verified = true;
  layer["crypto.verify_us"] = 1e6 * seconds_per_item(messages.size(), kMinProbeSeconds, [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      all_verified = crypto::verify(key.public_key(), messages[i], sigs[i]) && all_verified;
    }
  });
  std::vector<crypto::BatchItem> batch;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    batch.push_back({&key.public_key(), messages[i], &sigs[i]});
  }
  layer["crypto.batch_verify_us_per_sig"] =
      1e6 * seconds_per_item(batch.size(), kMinProbeSeconds, [&] {
        const auto ok = crypto::batch_verify(batch);
        all_verified = all_verified && std::all_of(ok.begin(), ok.end(),
                                                   [](unsigned char v) { return v != 0; });
      });
  if (!all_verified) failures.push_back("crypto probe: a fresh signature failed to verify");

  // --- crypto: CoSi over the committed blocks' collective signatures -----------
  std::vector<const ledger::Block*> cosigned;
  for (const ledger::Block& b : blocks) {
    if (b.cosign && cosigned.size() < kSignatures) cosigned.push_back(&b);
  }
  std::vector<Bytes> cosi_records;
  std::vector<std::vector<crypto::PublicKey>> cosi_keys;
  for (const ledger::Block* b : cosigned) {
    cosi_records.push_back(b->signing_bytes());
    cosi_keys.emplace_back();
    for (const ServerId s : b->signers) {
      cosi_keys.back().push_back(cluster.server_keys().at(s.value));
    }
  }
  bool cosi_ok = true;
  layer["crypto.cosi_verify_us"] = 1e6 * seconds_per_item(cosigned.size(), kMinProbeSeconds, [&] {
    for (std::size_t i = 0; i < cosigned.size(); ++i) {
      cosi_ok = crypto::cosi_verify(cosi_records[i], *cosigned[i]->cosign, cosi_keys[i]) && cosi_ok;
    }
  });
  if (cosigned.empty() || !cosi_ok) {
    failures.push_back("crypto probe: a committed block's co-sign did not verify");
  }

  layer["crypto.sha256_mb_s"] =
      static_cast<double>(total_bytes) / 1e6 /
      (static_cast<double>(block_bytes.size()) *
       seconds_per_item(block_bytes.size(), kMinProbeSeconds, [&] {
         for (const Bytes& b : block_bytes) (void)crypto::sha256(b);
       }));

  // --- merkle: the run's written keys on a copy of server 0's tree shape -------
  const store::Shard& shard0 = cluster.server(ServerId{0}).shard();
  std::vector<std::pair<std::size_t, crypto::Digest>> updates;
  for (const txn::Transaction* t : txns) {
    for (const txn::WriteEntry& w : t->rw.writes) {
      if (shard0.contains(w.id)) {
        updates.emplace_back(shard0.leaf_index(w.id), crypto::sha256(w.new_value));
      }
    }
  }
  merkle::MerkleTree copy(shard0.item_count());
  layer["merkle.leaf_update_us"] = 1e6 * seconds_per_item(updates.size(), kMinProbeSeconds, [&] {
    for (const auto& [leaf, digest] : updates) copy.set_leaf(leaf, digest);
  });
  std::vector<crypto::Digest> leaves;
  leaves.reserve(shard0.item_count());
  for (const ItemId item : shard0.item_ids()) {
    leaves.push_back(crypto::sha256(shard0.peek(item).value));
  }
  layer["merkle.build_ms"] = 1e3 * seconds_per_item(1, kMinProbeSeconds, [&] {
    (void)merkle::MerkleTree(leaves).root();
  });

  // --- txn: OCC validation of the run's txns against every live shard ----------
  layer["txn.occ_validate_us"] = 1e6 * seconds_per_item(txns.size(), kMinProbeSeconds, [&] {
    for (const txn::Transaction* t : txns) {
      for (std::uint32_t s = 0; s < cluster.num_servers(); ++s) {
        (void)txn::validate_occ(cluster.server(ServerId{s}).shard(), *t);
      }
    }
  });

  // --- serde: block and read/write-set codecs -----------------------------------
  bool roundtrip_ok = true;
  layer["serde.block_roundtrip_us"] =
      1e6 * seconds_per_item(blocks.size(), kMinProbeSeconds, [&] {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          const auto decoded = ledger::Block::deserialize(blocks[i].serialize());
          roundtrip_ok = roundtrip_ok && decoded && *decoded == blocks[i];
        }
      });
  std::vector<Bytes> rwsets;
  for (const txn::Transaction* t : txns) {
    Writer w;
    t->rw.encode(w);
    rwsets.push_back(std::move(w).take());
  }
  layer["serde.rwset_decode_us"] = 1e6 * seconds_per_item(rwsets.size(), kMinProbeSeconds, [&] {
    for (std::size_t i = 0; i < rwsets.size(); ++i) {
      Reader r(rwsets[i]);
      roundtrip_ok = txn::RwSet::decode(r) == txns[i]->rw && roundtrip_ok;
    }
  });
  if (!roundtrip_ok) failures.push_back("serde probe: a block or rw-set did not round-trip");

  // --- net: frame decoding of the blocks as decision envelopes -----------------
  Bytes stream;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Envelope env{NodeId::server(ServerId{0}), "tf_decision", block_bytes[i],
                 sigs[i % sigs.size()]};
    const Bytes frame =
        net::encode_envelope(NodeId::server(ServerId{0}), NodeId::server(ServerId{1}), false, env);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  constexpr std::size_t kChunk = 64 * 1024;
  std::size_t frames_ok = 0;
  const double frame_s = seconds_per_item(1, kMinProbeSeconds, [&] {
    net::FrameReader reader;
    frames_ok = 0;
    for (std::size_t pos = 0; pos < stream.size(); pos += kChunk) {
      reader.feed(BytesView(stream).subspan(pos, std::min(kChunk, stream.size() - pos)));
      while (auto payload = reader.next()) {
        const net::Frame f = net::decode_frame(*payload);
        if (f.kind == net::FrameKind::kEnvelope &&
            f.envelope.payload.size() == block_bytes[frames_ok].size()) {
          ++frames_ok;
        }
      }
    }
  });
  layer["net.frame_decode_mb_s"] = static_cast<double>(stream.size()) / 1e6 / frame_s;
  if (frames_ok != blocks.size()) failures.push_back("net probe: frames lost in decoding");

  // --- ledger: durable round-log appends and chain validation -------------------
  const std::string log_path = tmp_dir + "/probe.rlog";
  std::filesystem::remove(log_path);
  {
    ledger::FileRoundLog log(log_path);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      log.append({ledger::RoundRecord::Type::kDecision, blocks[i].height + 1, 0, "tf_decision",
                  block_bytes[i]});
    }
    layer["ledger.round_log_append_us"] =
        1e6 * seconds_since(t0) / static_cast<double>(blocks.size());
    const auto replayed = log.replay();
    if (!replayed || replayed->size() != blocks.size()) {
      failures.push_back("ledger probe: the round log did not replay what was appended");
    }
  }
  std::filesystem::remove(log_path);
  bool chain_ok = true;
  layer["ledger.chain_validate_ms"] = 1e3 * seconds_per_item(1, kMinProbeSeconds, [&] {
    chain_ok = ledger::validate_chain(blocks, cluster.server_keys(), true).ok && chain_ok;
  });
  if (!chain_ok) failures.push_back("ledger probe: the run's chain failed validation");
}

}  // namespace perfbench
