//! The Windows API-call vocabulary.
//!
//! The paper's embedding table holds 2,224 parameters at embedding size 8,
//! fixing the vocabulary at `M = 278` distinct API calls (§IV). This module
//! defines those 278 calls — real Win32/Nt API names spanning the behaviour
//! space both ransomware and benign software exercise — grouped by the
//! behaviour the trace generators compose.

use std::collections::HashMap;

/// The full 278-call table, in token order, grouped by behaviour.
#[rustfmt::skip]
const TABLE: &[&str] = &[
    // Reading file contents and positions.
    "NtReadFile", "ReadFile", "ReadFileEx", "ReadFileScatter",
    "NtQueryInformationFile", "GetFileSize", "GetFileSizeEx",
    "SetFilePointer", "SetFilePointerEx", "GetFileType",
    // Writing, flushing, renaming file contents.
    "NtWriteFile", "WriteFile", "WriteFileEx", "WriteFileGather",
    "FlushFileBuffers", "NtFlushBuffersFile", "SetEndOfFile",
    "NtSetInformationFile", "MoveFileW", "MoveFileExW", "ReplaceFileW",
    "CopyFileW",
    // Opening/creating/closing file and mapping handles.
    "NtCreateFile", "NtOpenFile", "CreateFileW", "CreateFileA",
    "NtClose", "CloseHandle", "CreateFileMappingW", "MapViewOfFile",
    "UnmapViewOfFile", "DuplicateHandle", "CreateDirectoryW",
    "RemoveDirectoryW",
    // Directory and volume enumeration.
    "FindFirstFileW", "FindNextFileW", "FindClose",
    "NtQueryDirectoryFile", "GetLogicalDrives", "GetDriveTypeW",
    "GetVolumeInformationW", "GetDiskFreeSpaceExW", "SearchPathW",
    "GetFullPathNameW",
    // File attributes, deletion, temp paths.
    "GetFileAttributesW", "SetFileAttributesW", "GetFileAttributesExW",
    "DeleteFileW", "NtDeleteFile", "GetFileInformationByHandle",
    "GetFileTime", "SetFileTime", "GetTempPathW", "GetTempFileNameW",
    // Registry access.
    "RegOpenKeyExW", "RegOpenKeyExA", "RegCreateKeyExW",
    "RegSetValueExW", "RegSetValueExA", "RegQueryValueExW",
    "RegQueryValueExA", "RegDeleteValueW", "RegDeleteKeyW",
    "RegEnumKeyExW", "RegEnumValueW", "RegCloseKey", "RegFlushKey",
    "RegQueryInfoKeyW", "NtOpenKey", "NtSetValueKey",
    // CryptoAPI / CNG — the heart of an encryption loop.
    "CryptAcquireContextW", "CryptAcquireContextA",
    "CryptReleaseContext", "CryptGenKey", "CryptDeriveKey",
    "CryptDestroyKey", "CryptEncrypt", "CryptDecrypt", "CryptGenRandom",
    "CryptExportKey", "CryptImportKey", "CryptHashData",
    "CryptCreateHash", "CryptDestroyHash", "BCryptOpenAlgorithmProvider",
    "BCryptGenRandom", "BCryptEncrypt", "BCryptCloseAlgorithmProvider",
    // Process creation and inspection.
    "CreateProcessW", "CreateProcessA", "CreateProcessInternalW",
    "OpenProcess", "TerminateProcess", "ExitProcess",
    "GetCurrentProcess", "GetCurrentProcessId",
    "NtQuerySystemInformation", "CreateToolhelp32Snapshot",
    "Process32FirstW", "Process32NextW", "Module32FirstW",
    "Module32NextW", "OpenProcessToken", "AdjustTokenPrivileges",
    "LookupPrivilegeValueW", "ShellExecuteExW",
    // Thread management and injection primitives.
    "CreateThread", "CreateRemoteThread", "OpenThread", "ResumeThread",
    "SuspendThread", "TerminateThread", "GetCurrentThreadId",
    "NtCreateThreadEx", "QueueUserAPC", "SetThreadContext",
    // Virtual memory and heaps.
    "VirtualAlloc", "VirtualAllocEx", "VirtualFree", "VirtualProtect",
    "VirtualProtectEx", "VirtualQuery", "WriteProcessMemory",
    "ReadProcessMemory", "HeapAlloc", "HeapFree", "HeapCreate",
    "GlobalAlloc",
    // Winsock networking.
    "WSAStartup", "WSACleanup", "socket", "connect", "bind", "listen",
    "accept", "send", "recv", "sendto", "recvfrom", "closesocket",
    "gethostbyname", "getaddrinfo", "select", "ioctlsocket",
    "WSASocketW", "WSAConnect", "WSASend", "WSARecv",
    // WinINet/WinHTTP/DNS — C2-style communication.
    "InternetOpenW", "InternetOpenUrlW", "InternetConnectW",
    "InternetReadFile", "InternetWriteFile", "InternetCloseHandle",
    "HttpOpenRequestW", "HttpSendRequestW", "HttpQueryInfoW",
    "InternetCrackUrlW", "URLDownloadToFileW", "DnsQuery_W",
    "InternetSetOptionW", "WinHttpOpen",
    // SMB shares and network neighbourhood — propagation surface.
    "NetShareEnum", "NetServerEnum", "NetUserEnum", "WNetOpenEnumW",
    "WNetEnumResourceW", "WNetCloseEnum", "WNetAddConnection2W",
    "WNetCancelConnection2W", "NetWkstaGetInfo", "NetRemoteTOD",
    // Windows services — persistence surface.
    "OpenSCManagerW", "OpenServiceW", "CreateServiceW", "StartServiceW",
    "ControlService", "DeleteService", "CloseServiceHandle",
    "QueryServiceStatusEx", "ChangeServiceConfigW",
    "EnumServicesStatusExW",
    // Windows and message-loop GUI calls.
    "CreateWindowExW", "DestroyWindow", "ShowWindow", "UpdateWindow",
    "GetMessageW", "PeekMessageW", "DispatchMessageW",
    "TranslateMessage", "DefWindowProcW", "SendMessageW",
    "PostMessageW", "MessageBoxW", "SetWindowTextW", "GetDC",
    "ReleaseDC", "BitBlt", "InvalidateRect", "RegisterClassExW",
    // Synchronization objects.
    "CreateMutexW", "OpenMutexW", "ReleaseMutex", "CreateEventW",
    "SetEvent", "WaitForSingleObject", "WaitForMultipleObjects",
    "CreateSemaphoreW", "EnterCriticalSection", "LeaveCriticalSection",
    // Time, system information, anti-analysis probes.
    "GetSystemTimeAsFileTime", "GetSystemTime", "GetLocalTime",
    "QueryPerformanceCounter", "QueryPerformanceFrequency",
    "GetTickCount", "GetTickCount64", "Sleep", "SleepEx",
    "GetSystemInfo", "GetNativeSystemInfo", "GetComputerNameW",
    "GetUserNameW", "GetVersionExW", "GlobalMemoryStatusEx",
    "IsDebuggerPresent",
    // Dynamic library loading.
    "LoadLibraryW", "LoadLibraryA", "LoadLibraryExW", "FreeLibrary",
    "GetProcAddress", "GetModuleHandleW", "GetModuleHandleA",
    "GetModuleFileNameW", "LdrLoadDll", "LdrGetProcedureAddress",
    "DisableThreadLibraryCalls", "SetDllDirectoryW",
    // COM and shell helpers.
    "CoInitialize", "CoInitializeEx", "CoUninitialize",
    "CoCreateInstance", "CoTaskMemAlloc", "CoTaskMemFree",
    "SHGetFolderPathW", "SHGetKnownFolderPath", "SHFileOperationW",
    "ShellExecuteW", "SHCreateDirectoryExW", "SHChangeNotify",
    // Clipboard and input state.
    "OpenClipboard", "CloseClipboard", "GetClipboardData",
    "SetClipboardData", "EmptyClipboard", "GetKeyState",
    "GetAsyncKeyState", "GetCursorPos",
    // Environment, paths, error handling, string conversion.
    "GetCommandLineW", "GetEnvironmentVariableW",
    "SetEnvironmentVariableW", "ExpandEnvironmentStringsW",
    "GetCurrentDirectoryW", "SetCurrentDirectoryW", "GetStartupInfoW",
    "GetSystemDirectoryW", "GetWindowsDirectoryW", "OutputDebugStringW",
    "SetErrorMode", "GetLastError", "SetLastError", "FormatMessageW",
    "MultiByteToWideChar", "WideCharToMultiByte",
    // Device control and shutdown.
    "DeviceIoControl", "NtShutdownSystem", "InitiateSystemShutdownExW",
    "SetSystemPowerState",
];

/// The 278-call vocabulary with name↔token lookup.
///
/// Tokens are stable: index into the canonical table order. Token values
/// are exactly what the model embeds (`0 ≤ token < 278`).
#[derive(Debug, Clone)]
pub struct ApiVocabulary {
    by_name: HashMap<&'static str, usize>,
}

impl ApiVocabulary {
    /// The canonical 278-call Windows vocabulary.
    pub fn windows() -> Self {
        let mut by_name = HashMap::with_capacity(TABLE.len());
        for (i, &name) in TABLE.iter().enumerate() {
            let prev = by_name.insert(name, i);
            debug_assert!(prev.is_none(), "duplicate API name {name}");
        }
        Self { by_name }
    }

    /// Vocabulary size `M`.
    pub fn len(&self) -> usize {
        TABLE.len()
    }

    /// `false`: the vocabulary is never empty.
    pub fn is_empty(&self) -> bool {
        TABLE.is_empty()
    }

    /// The API name at `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary.
    pub fn call(&self, token: usize) -> &'static str {
        TABLE[token]
    }

    /// The token of a call name, if present.
    pub fn token(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Like [`Self::token`] but panicking — for generator tables of known
    /// names.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the vocabulary.
    pub fn tok(&self, name: &str) -> usize {
        self.token(name)
            .unwrap_or_else(|| panic!("{name} not in vocabulary"))
    }

    /// Iterator over all API names in token order.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> {
        TABLE.iter().copied()
    }
}

impl Default for ApiVocabulary {
    fn default() -> Self {
        Self::windows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_278_calls() {
        // M = 278 ⇒ the paper's 2,224 embedding parameters at O = 8.
        let v = ApiVocabulary::windows();
        assert_eq!(v.len(), 278);
        assert_eq!(v.len() * 8, 2_224);
    }

    #[test]
    fn no_duplicate_names() {
        let v = ApiVocabulary::windows();
        let names: HashSet<&str> = v.iter().collect();
        assert_eq!(names.len(), v.len());
    }

    #[test]
    fn token_lookup_roundtrip() {
        let v = ApiVocabulary::windows();
        for t in 0..v.len() {
            assert_eq!(v.token(v.call(t)), Some(t));
        }
        assert_eq!(v.token("NotARealApi"), None);
    }

    #[test]
    #[should_panic(expected = "not in vocabulary")]
    fn tok_panics_on_unknown() {
        let _ = ApiVocabulary::windows().tok("Nope");
    }
}
