// The privacy boundary as a type system.
//
// The paper's trust model (§III) splits the world into two zones:
//
//   trusted   — the client: generates the key pair, builds the encrypted
//               query, and is the only party that ever sees decrypted
//               buffers (matched documents) or key material.
//   untrusted — brokers / historicals / realtime nodes: compute over
//               Paillier ciphertexts and the *public* document stream,
//               and must never hold a plaintext query, a matched
//               document, or the private key.
//
// Until PR 8 that invariant lived in reviewers' heads: `Bytes`/`Bigint`
// flowed identically whether they held a secret key, a decrypted match,
// or a ciphertext envelope. The wrappers below make the boundary a
// compile-time property, the same way thread_annotations.h made the
// locking discipline one (PR 3):
//
//   PlaintextBytes — a decrypted matched document. No conversion to
//       string/string_view and no serialize(ByteWriter&), so handing one
//       to the byte codec or a net::Frame fails overload resolution.
//       The single escape hatch, releaseForClientReconstruction(), has
//       no caller in src/ (dpss-lint); client binaries and test
//       fixtures read matched documents through it.
//   CiphertextBlob — the wire form of a Paillier ciphertext, the one
//       payload sanctioned to cross the boundary. Freely copyable and
//       serializable; a distinct type so codec paths state which of the
//       three species (plaintext / key / ciphertext) they carry.
//   SecretScalar — private-key material. Non-copyable (a copy is an
//       uncontrolled second residence for the key) and scrubbed on
//       destruction; dpss-lint additionally bans memcpy/memset over it
//       outside src/crypto/.
//   TrustedOnly<T> — a zone marker. Translation units compiled into
//       server roles define DPSS_SERVER_ROLE_TU (see the per-source
//       COMPILE_DEFINITIONS in src/{pss,cluster,net}/CMakeLists.txt),
//       and constructing a TrustedOnly<T> there is a static_assert
//       error. The client's key pair lives behind this marker.
//
// tests/compile_fail/ keeps the boundary honest: negative-compile
// fixtures prove that PlaintextBytes→Frame, SecretScalar copies and
// server-side TrustedOnly construction are rejected by the compiler,
// and scripts/dpss_arch.py pins the layer DAG these types ride on.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "crypto/bigint.h"

namespace dpss::crypto {

namespace detail {
/// Dependent-false for static_asserts that must only fire when a
/// template is actually instantiated (i.e. when a server-role TU really
/// constructs a trusted value, not merely includes this header).
template <typename>
inline constexpr bool kDependentFalse = false;
}  // namespace detail

/// Best-effort volatile scrub (the compiler may not elide it the way it
/// can a plain memset-before-free). For bulk storage of sensitive types.
void scrubBytes(void* data, std::size_t size) noexcept;

/// A decrypted matched document — the client-side product of buffer
/// reconstruction (§III-C Steps 3–4). Deliberately NOT convertible to
/// string_view and NOT serializable: a PlaintextBytes cannot be written
/// into a ByteWriter, a net::Frame or an RPC envelope without going
/// through releaseForClientReconstruction(), which dpss-lint keeps out
/// of src/ (client binaries and tests only). Storage is scrubbed on
/// destruction, and stream/gtest printing is redacted to a byte count
/// so matched documents never land in logs by accident.
class PlaintextBytes {
 public:
  PlaintextBytes() = default;

  /// Wraps decrypted bytes. In a server-role translation unit
  /// (DPSS_SERVER_ROLE_TU) this refuses to compile: a broker or
  /// historical has no business materializing a matched document.
  template <typename S,
            typename = std::enable_if_t<
                std::is_constructible_v<std::string, S&&> &&
                !std::is_same_v<std::remove_cvref_t<S>, PlaintextBytes>>>
  explicit PlaintextBytes(S&& bytes) : bytes_(std::forward<S>(bytes)) {
#ifdef DPSS_SERVER_ROLE_TU
    static_assert(detail::kDependentFalse<S>,
                  "privacy boundary: PlaintextBytes (a decrypted matched "
                  "document) must not be constructed in a server-role "
                  "translation unit; only the client reconstructs plaintext");
#endif
  }

  PlaintextBytes(const PlaintextBytes&) = default;
  PlaintextBytes& operator=(const PlaintextBytes&) = default;
  PlaintextBytes(PlaintextBytes&&) noexcept = default;
  PlaintextBytes& operator=(PlaintextBytes&&) noexcept = default;
  ~PlaintextBytes() { scrubBytes(bytes_.data(), bytes_.size()); }

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  /// The ONLY way back to raw bytes. dpss-lint's escape-hatch rule
  /// allows no call site in src/; tests go through their fixture
  /// (tests/pss/plaintext_access.h) and client-side binaries
  /// (examples/, bench/, perfbench/) are the sanctioned end consumers.
  const std::string& releaseForClientReconstruction() const { return bytes_; }

  /// Comparison is not release: equality/ordering against other
  /// plaintext (dedup, test assertions) never exposes the bytes.
  friend bool operator==(const PlaintextBytes& a,
                         const PlaintextBytes& b) = default;
  friend auto operator<=>(const PlaintextBytes& a,
                          const PlaintextBytes& b) = default;
  friend bool operator==(const PlaintextBytes& a, std::string_view b) {
    return a.bytes_ == b;
  }

  /// Redacted: prints "PlaintextBytes(<n> bytes)", never the content.
  friend std::ostream& operator<<(std::ostream& os, const PlaintextBytes& p);

 private:
  std::string bytes_;
};

/// The wire form of a Paillier ciphertext — the one sensitive-adjacent
/// payload that IS sanctioned to cross the trust boundary (ciphertexts
/// are semantically opaque to servers). Freely copyable and writable
/// into a Frame/Envelope, but a distinct type, so serialization paths
/// say explicitly which species they carry — and a ciphertext can never
/// be mistaken for decrypted bytes: there is no conversion from
/// CiphertextBlob to PlaintextBytes short of Paillier decryption.
class CiphertextBlob {
 public:
  CiphertextBlob() = default;
  /// Wraps serialized ciphertext bytes (Bigint::toBytes format).
  explicit CiphertextBlob(std::string wire) : wire_(std::move(wire)) {}

  /// The serialized bytes, for writing into a frame or codec. Safe to
  /// release freely — that is what a ciphertext blob is for.
  const std::string& wire() const { return wire_; }

  std::size_t size() const { return wire_.size(); }
  bool empty() const { return wire_.empty(); }

  friend bool operator==(const CiphertextBlob& a,
                         const CiphertextBlob& b) = default;

 private:
  std::string wire_;
};

/// Private-key material: a Bigint that cannot be copied (each copy is an
/// uncontrolled second residence for the key) and whose limbs are
/// scrubbed before the storage is returned to the allocator. Arithmetic
/// reads go through get(); there is deliberately no mutable accessor and
/// no serialize(ByteWriter&) — PaillierPrivateKey::serialize is the one
/// audited persistence path, and dpss-lint bans memcpy/memset over
/// SecretScalar storage outside src/crypto/.
class SecretScalar {
 public:
  SecretScalar() = default;
  explicit SecretScalar(Bigint value) : value_(std::move(value)) {}

  SecretScalar(const SecretScalar&) = delete;
  SecretScalar& operator=(const SecretScalar&) = delete;
  SecretScalar(SecretScalar&&) noexcept = default;
  SecretScalar& operator=(SecretScalar&&) noexcept = default;
  ~SecretScalar() { scrub(); }

  const Bigint& get() const { return value_; }

 private:
  void scrub() noexcept;

  Bigint value_;
};

/// Marks a value as existing only in the trusted (client) zone.
/// Server-role translation units — everything compiled with
/// DPSS_SERVER_ROLE_TU, i.e. the broker/historical/realtime/coordinator
/// node TUs, the broker-side fold machinery and the dpss_node binary —
/// may mention the type (declarations, references) but constructing one
/// is a compile error: by construction a key pair can never be
/// materialized on a node that answers RPCs.
template <typename T>
class TrustedOnly {
 public:
  template <typename... Args>
  explicit TrustedOnly(Args&&... args) : value_(std::forward<Args>(args)...) {
#ifdef DPSS_SERVER_ROLE_TU
    static_assert(detail::kDependentFalse<T>,
                  "privacy boundary: TrustedOnly<T> must not be constructed "
                  "in a server-role translation unit; trusted values (key "
                  "pairs, reconstruction state) exist only on the client");
#endif
  }

  TrustedOnly(const TrustedOnly&) = delete;
  TrustedOnly& operator=(const TrustedOnly&) = delete;
  TrustedOnly(TrustedOnly&&) noexcept = default;
  TrustedOnly& operator=(TrustedOnly&&) noexcept = default;

  const T& get() const { return value_; }
  T& get() { return value_; }

 private:
  T value_;
};

}  // namespace dpss::crypto
