// Forged item counts in substrate replies: a substrate that declares
// 2^62 registry entries or deep-storage keys must get a typed CorruptData
// from the remote proxy before anything is sized by the count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/transport.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/error.h"
#include "net/substrate.h"

namespace dpss::net {
namespace {

constexpr std::uint64_t kForged = std::uint64_t{1} << 62;

TEST(SubstrateDecode, ForgedRegistrySnapshotCountIsCorruptData) {
  ManualClock clock(0);
  cluster::Transport transport(clock);
  transport.bind("substrate", [](const std::string&) {
    ByteWriter w;
    w.u64(7);  // registry version
    w.varint(kForged);
    w.str("/announcements");
    w.str("");
    w.u8(0);
    return w.take();
  });
  RemoteRegistry registry(transport, "substrate");
  EXPECT_THROW(registry.syncNow(), CorruptData);
}

TEST(SubstrateDecode, ForgedDeepStorageListCountIsCorruptData) {
  ManualClock clock(0);
  cluster::Transport transport(clock);
  transport.bind("substrate", [](const std::string&) {
    ByteWriter w;
    w.varint(kForged);
    w.str("key");
    return w.take();
  });
  RemoteDeepStorage storage(transport, "substrate");
  EXPECT_THROW(storage.list(), CorruptData);
}

}  // namespace
}  // namespace dpss::net
