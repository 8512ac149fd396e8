#ifndef IVDB_COMMON_CRC32_H_
#define IVDB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace ivdb {

// CRC-32 (reflected IEEE polynomial, as in zlib) framing every WAL record
// and the checkpoint image: detects torn or corrupt log records and images
// at restart. Slicing-by-8; values are the standard CRC-32 (see
// coding_test's known answers), so on-disk checksums never change.
uint32_t Crc32(const void* data, size_t n);

}  // namespace ivdb

#endif  // IVDB_COMMON_CRC32_H_
