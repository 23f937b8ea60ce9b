// dpss-negcompile: expect(privacy boundary)
// dpss-negcompile: flags(-DDPSS_SERVER_ROLE_TU)
//
// PR 10's acceptance scenario: a realtime node (a server-role TU — it
// hosts subscription matchers and seals their encrypted buffers) tries
// to "peek" at a standing subscription's match buffer by serializing a
// sealed snapshot envelope and declaring the bytes a recovered
// document. RecoveredDocument.payload is PlaintextBytes, whose
// constructor static_asserts in any DPSS_SERVER_ROLE_TU: only the
// client-side SubscriptionFeed (which holds the private key) may
// materialize recovered documents.
#include <string>
#include <utility>

#include "common/bytes.h"
#include "crypto/sensitive.h"
#include "pss/subscription.h"

dpss::pss::RecoveredDocument peek(
    const dpss::pss::SubscriptionSnapshot& snap) {
  dpss::ByteWriter w;
  snap.envelope.serialize(w);
  dpss::pss::RecoveredDocument doc;
  doc.stream = snap.node;
  doc.streamIndex = snap.envelope.firstIndex;
  doc.payload = dpss::crypto::PlaintextBytes(w.take());
  return doc;
}
