#include "crypto/hmac_signer.hpp"

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/hmac.hpp"

namespace modubft::crypto {

namespace {

Bytes derive_key(std::uint64_t seed, std::uint32_t id) {
  Writer w;
  w.u64(seed);
  w.u32(id);
  w.str("modubft-hmac-key");
  Digest d = sha256(w.data());
  return Bytes(d.begin(), d.end());
}

// Signer i and the verifier share key i's HmacKey: its pad states are
// computed once, in make_system, and never written again, so the verifier
// that every replica thread shares needs no lock.
using SharedKey = std::shared_ptr<const HmacKey>;

class HmacSigner : public Signer {
 public:
  HmacSigner(ProcessId id, SharedKey key) : id_(id), key_(std::move(key)) {}

  Signature sign(const Bytes& message) const override {
    Digest tag = key_->mac(message);
    return Bytes(tag.begin(), tag.end());
  }

  ProcessId id() const override { return id_; }

 private:
  ProcessId id_;
  SharedKey key_;
};

class HmacVerifier : public Verifier {
 public:
  explicit HmacVerifier(std::vector<SharedKey> keys) : keys_(std::move(keys)) {}

  bool verify(ProcessId signer, const Bytes& message,
              const Signature& sig) const override {
    if (signer.value >= keys_.size()) return false;
    Digest expected = keys_[signer.value]->mac(message);
    if (sig.size() != expected.size()) return false;
    Digest given;
    std::copy(sig.begin(), sig.end(), given.begin());
    return digest_equal(expected, given);
  }

 private:
  std::vector<SharedKey> keys_;
};

}  // namespace

SignatureSystem HmacScheme::make_system(std::uint32_t n,
                                        std::uint64_t seed) const {
  SignatureSystem sys;
  std::vector<SharedKey> keys;
  for (std::uint32_t i = 0; i < n; ++i) {
    keys.push_back(std::make_shared<const HmacKey>(derive_key(seed, i)));
    sys.signers.push_back(
        std::make_unique<HmacSigner>(ProcessId{i}, keys.back()));
  }
  sys.verifier = std::make_shared<HmacVerifier>(std::move(keys));
  return sys;
}

}  // namespace modubft::crypto
