// dpss-lint-fixture: expect(raw-modexp)
// dpss-lint-fixture: as(src/pss/raw_modexp_fixture.cc)
//
// The PSS layer calling a modexp kernel directly bypasses the
// crypto::Paillier* entry points — the only modexp call sites covered by
// the differential suite (fast path == reference, byte for byte) and the
// KAT goldens. A raw powm here would sit outside that coverage. This
// fixture is linted as if it lived in src/pss/.
#include "crypto/bigint.h"

namespace dpss::pss {

crypto::Bigint foldSlotByHand(const crypto::Bigint& c,
                              const crypto::Bigint& k,
                              const crypto::Bigint& n2) {
  // Should be pub.mulPlain(c, k) — the raw kernel call is the violation.
  return crypto::Bigint::powm(c, k, n2);
}

}  // namespace dpss::pss
